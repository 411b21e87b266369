"""Canonical repository paths used as citation keys and tree coordinates.

One rendering rule everywhere: paths are anchored at "/", directory paths end
with "/", and the root is exactly "/". The separator is "/" on every platform.
Equality, hashing, and ordering all follow the rendered form byte-for-byte.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from .errors import InvalidPath
from .value import Value


class PathKind(enum.Enum):
    FILE = "file"
    DIRECTORY = "directory"


class CanonicalPath(Value):
    """An absolute repository path: its segments plus a node kind. The root
    is the directory with no segments; a file path needs at least one."""

    __slots__ = ("segments", "kind")

    def __init__(self, segments: tuple[str, ...], kind: PathKind) -> None:
        if not segments and kind is PathKind.FILE:
            raise InvalidPath("a file path needs at least one segment")
        for segment in segments:
            if not segment:
                raise InvalidPath("empty path segment")
            if segment in (".", ".."):
                raise InvalidPath(f"segment {segment!r} is not allowed in canonical form")
            if "/" in segment or "\\" in segment:
                raise InvalidPath(f"segment {segment!r} contains a separator")
        object.__setattr__(self, "segments", segments)  # not _init: parse builds one path per key
        object.__setattr__(self, "kind", kind)

    # Every citation-file lookup runs these two, so they skip the generic field tuple.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CanonicalPath:
            return NotImplemented
        return self.segments == other.segments and self.kind is other.kind

    def __hash__(self) -> int:
        return hash(self.segments)

    def render(self) -> str:
        rendered = "/" + "/".join(self.segments)
        if self.kind is PathKind.DIRECTORY and self.segments:
            rendered += "/"
        return rendered

    def __str__(self) -> str:
        return self.render()

    def __lt__(self, other: "CanonicalPath") -> bool:
        return self.render() < other.render()

    @property
    def is_root(self) -> bool:
        return not self.segments

    @property
    def is_dir(self) -> bool:
        return self.kind is PathKind.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.kind is PathKind.FILE

    def parent(self) -> CanonicalPath | None:
        """The enclosing directory, or None for the root itself."""
        if self.is_root:
            return None
        return CanonicalPath(self.segments[:-1], PathKind.DIRECTORY)

    def ancestors(self) -> Iterator[CanonicalPath]:
        """Proper ancestors, nearest first, ending with the root."""
        node = self.parent()
        while node is not None:
            yield node
            node = node.parent()

    def is_within(self, prefix: CanonicalPath) -> bool:
        """True when this path lies inside ``prefix`` (a directory equals itself)."""
        if not prefix.is_dir:
            return False
        n = len(prefix.segments)
        if self.segments[:n] != prefix.segments:
            return False
        if len(self.segments) == n:
            return self.is_dir
        return True

    def rebased(self, old: CanonicalPath, new: CanonicalPath) -> CanonicalPath:
        """Rewrite the ``old`` prefix of this path to ``new``; the kind is kept."""
        if old.is_file:
            if self != old:
                raise InvalidPath(f"{self} does not match {old}")
            return new
        if not self.is_within(old):
            raise InvalidPath(f"{self} is not inside {old}")
        return CanonicalPath(new.segments + self.segments[len(old.segments):], self.kind)


ROOT = CanonicalPath((), PathKind.DIRECTORY)


class Tree:
    """One version's tree as the citation operations read it: the kind of the
    node at some segments, None when there is none. Every path operation
    asks only this, whether the tree is held in memory or looked up in a
    checkout or at a git revision one path at a time."""

    __slots__ = ()

    def kind_of(self, segments: tuple[str, ...]) -> PathKind | None:
        raise NotImplementedError

    def contains(self, path: CanonicalPath) -> bool:
        return self.kind_of(path.segments) is path.kind


def canonicalize(
    raw: str, cwd: tuple[str, ...] = (), kind_hint: PathKind | None = None, tree: Tree | None = None
) -> CanonicalPath:
    """Parse the path a user typed into a key: the one grammar of every
    command's path arguments.

    A leading "/" anchors ``raw`` at the repository root; otherwise it starts
    from the ``cwd`` segments. "." and empty segments are dropped, and ".."
    drops the segment before it; going above the root raises
    :class:`~gitcite.errors.InvalidPath`. The kind comes from a trailing
    "/", "." or "..", then from ``kind_hint``, then from ``tree``; otherwise
    the path is a file.
    """
    parts = raw.split("/")
    segments = [] if raw.startswith("/") else list(cwd)
    for part in parts:
        if part == "..":
            if not segments:
                raise InvalidPath(f"{raw!r} is outside the repository")
            segments.pop()
        elif part not in ("", "."):
            segments.append(part)
    if not segments:
        return ROOT
    key = tuple(segments)
    if parts[-1] in ("", ".", ".."):
        return CanonicalPath(key, PathKind.DIRECTORY)
    if kind_hint is None and tree is not None:
        kind_hint = tree.kind_of(key)
    return CanonicalPath(key, kind_hint or PathKind.FILE)


def from_rendered(text: str) -> CanonicalPath:
    """Parse the strict rendered form used for citation-file keys."""
    if not text.startswith("/"):
        raise InvalidPath(f"rendered path must start with '/': {text!r}")
    if text == "/":
        return ROOT
    kind = PathKind.DIRECTORY if text.endswith("/") else PathKind.FILE
    body = text[1:-1] if kind is PathKind.DIRECTORY else text[1:]
    return CanonicalPath(tuple(body.split("/")), kind)
