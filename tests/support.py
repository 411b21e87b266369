"""Shared builders and the independent resolution oracle used across tests."""

from __future__ import annotations

from gitcite import CitationFile, CitationRecord, TreeSnapshot
from gitcite.paths import CanonicalPath


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
    return TreeSnapshot.from_files({f: f"digest:{f}" for f in files}, dirs=dirs)
