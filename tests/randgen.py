"""Seeded random generators for trees, citation files, and edit sequences."""

from __future__ import annotations

import random
import string

from gitcite import CitationFile, CitationRecord, Repository, TreeSnapshot
from gitcite.paths import ROOT, CanonicalPath, PathKind
from gitcite.store import CiteEdit
from gitcite.store import TreeEdit

_NAMES = string.ascii_lowercase


def rand_name(rng: random.Random, used: set[str]) -> str:
    while True:
        name = "".join(rng.choice(_NAMES) for _ in range(rng.randint(1, 6)))
        if name not in used:
            used.add(name)
            return name


def rand_record(rng: random.Random) -> CitationRecord:
    tag = rng.randrange(10**9)
    extras = {}
    if rng.random() < 0.3:
        extras = {f"note{rng.randrange(5)}": f"value-{rng.randrange(100)}"}
    return CitationRecord(
        owner=f"owner{tag % 97}",
        repo_name=f"repo{tag % 89}",
        locator=f"https://example.com/r/{tag}",
        version_id=f"{tag:x}"[:7],
        date=f"20{tag % 30:02d}-01-02T03:04:05Z",
        author_list=tuple(f"author{(tag + i) % 13}" for i in range(rng.randint(0, 3))),
        extras=extras,
    )


def rand_tree(rng: random.Random, max_nodes: int = 40) -> TreeSnapshot:
    """A random tree with at least one file."""
    snap = TreeSnapshot()
    dirs = [ROOT]
    used: set[str] = set()
    node_budget = rng.randint(1, max_nodes)
    for _ in range(node_budget):
        parent = rng.choice(dirs)
        name = rand_name(rng, used)
        if rng.random() < 0.35:
            child = parent.child(name, PathKind.DIRECTORY)
            snap = snap.with_dir(child)
            dirs.append(child)
        else:
            snap = snap.with_file(parent.child(name, PathKind.FILE), digest=f"d{rng.randrange(10**6)}")
    if not snap.file_paths():
        snap = snap.with_file(ROOT.child("seed", PathKind.FILE), digest="d0")
    return snap


def rand_citation_file(rng: random.Random, tree: TreeSnapshot, density: float = 0.25) -> CitationFile:
    """A partial citation file over the tree's nodes; the root is always cited."""
    entries = {ROOT: rand_record(rng)}
    for path in tree.paths():
        if not path.is_root and rng.random() < density:
            entries[path] = rand_record(rng)
    return CitationFile(entries)


def rand_node(rng: random.Random, tree: TreeSnapshot) -> CanonicalPath:
    return rng.choice(tree.paths())


def rand_tree_edits(rng: random.Random, tree: TreeSnapshot, count: int) -> list[TreeEdit]:
    """Valid structural edits against ``tree``, applied in order."""
    edits: list[TreeEdit] = []
    used = {p.name for p in tree.paths()}
    current = tree
    for _ in range(count):
        kind = rng.random()
        dirs = [p for p in current.paths() if p.is_dir]
        files = current.file_paths()
        if kind < 0.45 or not files:
            parent = rng.choice(dirs)
            edit = TreeEdit.create(parent.child(rand_name(rng, used), PathKind.FILE), digest=f"d{rng.randrange(10**6)}")
        elif kind < 0.6:
            edit = TreeEdit.modify(rng.choice(files), digest=f"d{rng.randrange(10**6)}")
        elif kind < 0.8:
            victims = [p for p in current.paths() if not p.is_root]
            if not victims:
                continue
            edit = TreeEdit.delete(rng.choice(victims))
        else:
            movable = [p for p in current.paths() if not p.is_root]
            if not movable:
                continue
            source = rng.choice(movable)
            homes = [d for d in dirs if not (source.is_dir and (d == source or d.is_within(source)))]
            if not homes:
                continue
            target = rng.choice(homes).child(rand_name(rng, used), source.kind)
            edit = TreeEdit.rename(source, target)
        try:
            current = _apply(current, edit)
        except Exception:
            continue
        edits.append(edit)
    return edits


def _apply(tree: TreeSnapshot, edit: TreeEdit):
    from gitcite.store import _apply_tree_edit

    return _apply_tree_edit(tree, edit)


def rand_cite_edits(rng: random.Random, repo: Repository, branch: str, count: int) -> list[CiteEdit]:
    """Citation edits valid against the branch head (before any tree edits)."""
    head = repo.head(branch)
    entries = head.cf.as_dict()
    edits: list[CiteEdit] = []
    for _ in range(count):
        roll = rng.random()
        cited = [p for p in entries if not p.is_root]
        uncited = [p for p in head.tree.paths() if p not in entries]
        if roll < 0.5 and uncited:
            path = rng.choice(uncited)
            edit = CiteEdit.add(path, rand_record(rng))
            entries[path] = edit.record
        elif roll < 0.75 and cited:
            path = rng.choice(cited)
            edit = CiteEdit.delete(path)
            del entries[path]
        else:
            path = rng.choice(list(entries))
            edit = CiteEdit.modify(path, rand_record(rng))
            entries[path] = edit.record
        edits.append(edit)
    return edits
