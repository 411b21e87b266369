"""Shared builders and the independent resolution oracle used across tests."""

from __future__ import annotations

import os
from pathlib import Path

from gitcite import CitationFile, CitationRecord
from gitcite.model import RECORD_FIELDS, TreeSnapshot
from gitcite.gitadapter import CITATION_FILE, _WriterLock
from gitcite.paths import CanonicalPath, PathKind, from_rendered


def record(tag: str, **overrides) -> CitationRecord:
    """A distinct, deterministic record derived from ``tag``."""
    fields = dict(
        owner=f"owner-{tag}",
        repo_name=f"repo-{tag}",
        locator=f"https://example.com/{tag}",
        version_id=f"rev-{tag}",
        date="2021-03-04T05:06:07Z",
        author_list=(f"author-{tag}",),
    )
    fields.update(overrides)
    return CitationRecord(**fields)


def store_citation_file(worktree_root: Path | str, cf: CitationFile) -> None:
    """Write ``cf`` over the worktree's citation file, as every command
    writes it: through the writer lock, whose ``commit`` writes the
    canonical bytes."""
    with _WriterLock(str(worktree_root)) as lock:
        lock.commit(cf)


def record_to_obj(record: CitationRecord) -> dict[str, object]:
    """``record`` as the JSON object the citation file holds for it, fields in file order."""
    obj = {name: getattr(record, name) for name in RECORD_FIELDS}
    obj["author_list"], obj["extras"] = list(record.author_list), dict(record.extras)
    return obj


def resolve_by_walking(cf: CitationFile, path: CanonicalPath) -> CitationRecord:
    """Oracle: walk from the node upward, stopping at the first explicit entry.

    The package looks up ancestors too; ``test_model`` checks it against a
    scan of every key as well.
    """
    node: CanonicalPath | None = path
    while node is not None:
        found = cf.get(node)
        if found is not None:
            return found
        node = node.parent()
    raise AssertionError(f"no entry found walking up from {path}; root entry missing")


def tree(*files: str, dirs: tuple[str, ...] = ()) -> TreeSnapshot:
    """A snapshot of the rendered ``files`` and ``dirs``; each file's digest names it."""
    return TreeSnapshot.from_files(
        {from_rendered(f).segments: f"digest:{f}" for f in files}, [from_rendered(d).segments for d in dirs]
    )


def tree_paths(snap: TreeSnapshot) -> list[CanonicalPath]:
    """Every node of ``snap``, root included, in rendered order."""
    nodes = [CanonicalPath(s, PathKind.DIRECTORY) for s in snap.dirs]
    nodes += (CanonicalPath(s, PathKind.FILE) for s in snap.files)
    return sorted(nodes, key=str)


def tree_files(snap: TreeSnapshot) -> list[CanonicalPath]:
    """Every file of ``snap``, in rendered order."""
    return [p for p in tree_paths(snap) if p.is_file]


def child(parent: CanonicalPath, name: str, kind: PathKind) -> CanonicalPath:
    """The node ``name`` of ``kind`` in the directory ``parent``."""
    assert parent.is_dir, parent
    return CanonicalPath(parent.segments + (name,), kind)


def snapshot_worktree(worktree_root: Path | str) -> TreeSnapshot:
    """Oracle: the whole working tree from one ``os.walk``.

    Every entry named ``.git``, a directory or a linked worktree's file, and
    the root's citation file are left out, and so is a FIFO, socket or
    device, which git does not carry. Every file digest is ``""``.
    Directories are taken from the walk itself, so a symlink to a directory
    is not descended into and is left out.
    ``gitadapter.WorktreeLookup`` must answer ``kind_of`` exactly as this
    snapshot does.
    """
    root = Path(worktree_root)
    files: dict[tuple[str, ...], str] = {}
    dirs: list[tuple[str, ...]] = []
    for current, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        rel = Path(current).relative_to(root)
        parts = () if rel == Path(".") else rel.parts
        dirs.append(parts)
        for filename in filenames:
            full = os.path.join(current, filename)
            if filename != ".git" and (parts or filename != CITATION_FILE) and (
                os.path.isfile(full) or os.path.islink(full)
            ):
                files[parts + (filename,)] = ""
    return TreeSnapshot.from_files(files, dirs)
