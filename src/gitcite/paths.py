"""Canonical repository paths used as citation keys and tree coordinates.

One rendering rule everywhere: paths are anchored at "/", directory paths end
with "/", and the root is exactly "/". The separator is "/" on every platform.
Equality, hashing, and ordering all follow the rendered form byte-for-byte.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .errors import InvalidPath, UnknownKind
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

    @property
    def name(self) -> str:
        return self.segments[-1] if self.segments else ""

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

    def child(self, name: str, kind: PathKind) -> CanonicalPath:
        if not self.is_dir:
            raise InvalidPath(f"{self} is not a directory")
        return CanonicalPath(self.segments + (name,), kind)

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

    def covers(self, node: CanonicalPath) -> bool:
        """True when a citation entry at this path applies to ``node``."""
        if self.is_dir:
            return node.is_within(self)
        return self == node

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


def canonicalize(raw: str, kind_hint: PathKind | None = None, tree: Tree | None = None) -> CanonicalPath:
    """Parse ``raw`` (relative or root-anchored) into canonical form.

    "." components are dropped; traversal (".."), empty segments, and
    backslash separators are rejected. The node kind comes from a trailing
    "/" marker if present, then from ``kind_hint``, then from a lookup in
    ``tree``. A root-anchored input is already in the rendered grammar, so
    without any of those its missing trailing slash means a file; a relative
    input with no kind source is an error.
    """
    if "\\" in raw:
        raise InvalidPath(f"backslash separators are not allowed: {raw!r}")
    parts = raw.split("/")
    anchored = bool(parts) and parts[0] == ""
    if anchored:
        parts = parts[1:]
    trailing_dir = bool(parts) and parts[-1] == ""
    if trailing_dir:
        parts = parts[:-1]
    segments: list[str] = []
    for part in parts:
        if part == ".":
            continue
        if part == "..":
            raise InvalidPath(f"path escapes the root: {raw!r}")
        if part == "":
            raise InvalidPath(f"empty segment in {raw!r}")
        segments.append(part)
    if not segments:
        return ROOT
    if trailing_dir:
        if kind_hint is PathKind.FILE:
            raise InvalidPath(f"{raw!r} has a directory marker but was declared a file")
        return CanonicalPath(tuple(segments), PathKind.DIRECTORY)
    if kind_hint is not None:
        return CanonicalPath(tuple(segments), kind_hint)
    if tree is not None:
        kind = tree.kind_of(tuple(segments))
        if kind is not None:
            return CanonicalPath(tuple(segments), kind)
    if anchored:
        return CanonicalPath(tuple(segments), PathKind.FILE)
    if tree is not None:
        raise UnknownKind(f"{raw!r} is not in the tree, so its kind is unknown")
    raise UnknownKind(f"cannot tell whether {raw!r} is a file or a directory")


def from_rendered(text: str) -> CanonicalPath:
    """Parse the strict rendered form used for citation-file keys."""
    if not text.startswith("/"):
        raise InvalidPath(f"rendered path must start with '/': {text!r}")
    if text == "/":
        return ROOT
    kind = PathKind.DIRECTORY if text.endswith("/") else PathKind.FILE
    body = text[1:-1] if kind is PathKind.DIRECTORY else text[1:]
    return CanonicalPath(tuple(body.split("/")), kind)
