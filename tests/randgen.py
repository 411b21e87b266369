"""Seeded random generators for names, records, trees and citation files."""

from __future__ import annotations

import random
import string

from gitcite import CitationFile, CitationRecord
from gitcite.model import TreeSnapshot
from gitcite.paths import ROOT, CanonicalPath, PathKind

from support import child, tree_paths

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
            node = child(parent, name, PathKind.DIRECTORY)
            snap = snap.with_dir(node)
            dirs.append(node)
        else:
            snap = snap.with_file(child(parent, name, PathKind.FILE), digest=f"d{rng.randrange(10**6)}")
    if not snap.files:
        snap = snap.with_file(child(ROOT, "seed", PathKind.FILE), digest="d0")
    return snap


def rand_citation_file(rng: random.Random, tree: TreeSnapshot, density: float = 0.25) -> CitationFile:
    """A partial citation file over the tree's nodes; the root is always cited."""
    entries = {ROOT: rand_record(rng)}
    for path in tree_paths(tree):
        if not path.is_root and rng.random() < density:
            entries[path] = rand_record(rng)
    return CitationFile(entries)


def rand_node(rng: random.Random, tree: TreeSnapshot) -> CanonicalPath:
    return rng.choice(tree_paths(tree))
