"""Shared builders and the independent resolution oracle used across tests."""

from __future__ import annotations

import os
from pathlib import Path

from gitcite import CitationFile, CitationRecord
from gitcite.model import TreeSnapshot
from gitcite.gitadapter import citation_file_name
from gitcite.paths import CanonicalPath, from_rendered


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


def snapshot_worktree(worktree_root: Path | str) -> TreeSnapshot:
    """Oracle: the whole working tree from one ``os.walk``.

    Every entry named ``.git``, a directory or a linked worktree's file, and
    the root's citation file are left out. Every file digest is ``""``.
    Directories are taken from the walk itself, so a symlink to a directory
    is not descended into and is left out.
    ``gitadapter.WorktreeLookup`` must answer ``kind_of`` exactly as this
    snapshot does.
    """
    root = Path(worktree_root)
    skip = citation_file_name()
    files: dict[tuple[str, ...], str] = {}
    dirs: list[tuple[str, ...]] = []
    for current, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        rel = Path(current).relative_to(root)
        parts = () if rel == Path(".") else rel.parts
        dirs.append(parts)
        files.update(
            (parts + (filename,), "") for filename in filenames if filename != ".git" and (parts or filename != skip)
        )
    return TreeSnapshot.from_files(files, dirs)
