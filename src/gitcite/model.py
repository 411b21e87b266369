"""Core citation model: records, citation files, tree snapshots, resolution.

A citation file is a partial map from canonical paths to citation records.
The root entry is always expected to be present, so every node of a version
tree resolves to a record: its own entry if it has one, otherwise the entry
of its closest ancestor directory.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Set

from .errors import GitCiteError, PathNotInTree
from .paths import ROOT, CanonicalPath, PathKind, Tree
from .value import Value

# A record's fields in file order: five strings, the first three required, then the authors and extras.
REQUIRED_FIELDS = ("owner", "repo_name", "locator")
TEXT_FIELDS = (*REQUIRED_FIELDS, "version_id", "date")
RECORD_FIELDS = (*TEXT_FIELDS, "author_list", "extras")

# Inconsistency rules reported by validate().
MISSING_ROOT = "missing_root"
DANGLING_KEY = "dangling_key"
KIND_MISMATCH = "kind_mismatch"


class CitationRecord(Value):
    """One citation: the snippets a reader needs to credit and locate code.

    ``owner``, ``repo_name`` and ``locator`` (URL or DOI) are required.
    ``extras`` holds additional free-form snippets; its keys may not shadow
    the named fields and are kept in sorted order so equal records always
    serialize identically.
    """

    __slots__ = RECORD_FIELDS

    def __init__(
        self, owner: str, repo_name: str, locator: str, version_id: str = "", date: str = "",
        author_list: Iterable[str] = (), extras: Mapping[str, str] | None = None,
    ) -> None:
        if not (owner and repo_name and locator):
            name = next(name for name, value in zip(REQUIRED_FIELDS, (owner, repo_name, locator)) if not value)
            raise ValueError(f"{name} must be non-empty")
        extras = dict(sorted(extras.items())) if extras else {}
        for key, value in extras.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError("extras must map strings to strings")
            if key in RECORD_FIELDS:
                raise ValueError(f"extras key {key!r} shadows a named field")
        self._init(owner, repo_name, locator, version_id, date, tuple(author_list), extras)


Segments = tuple[str, ...]


class TreeSnapshot(Value, Tree):
    """An immutable snapshot of one version's directory tree.

    ``files`` maps each file's segments to an opaque content digest, and
    ``dirs`` holds the segments of every directory, the root's ``()``
    included. Every ancestor of a file or directory is in ``dirs``, and no
    segments are both. A snapshot is built once and then only read;
    :meth:`with_file` and :meth:`with_dir` return a new one. No command
    builds one; the tests and the benchmark's tracer use it.
    """

    __slots__ = ("files", "dirs")

    def __init__(
        self, files: Mapping[Segments, str] | None = None, dirs: frozenset[Segments] = frozenset({()})
    ) -> None:
        self._init({} if files is None else files, dirs)

    @classmethod
    def from_files(cls, files: Mapping[Segments, str], dirs: Iterable[Segments] = ()) -> "TreeSnapshot":
        """Build a snapshot from file segments -> digest plus extra directory segments.

        The result and the errors are those of folding :meth:`with_file` over
        ``files`` and then :meth:`with_dir` over ``dirs``: a file may not sit
        where another file needs a directory, nor at the root. Each path adds
        its ancestors until it meets one already present, so the build is
        linear in the number of path segments.
        """
        file_map = dict(files)
        if () in file_map:
            raise GitCiteError("a directory already exists at /")
        dir_set: set[Segments] = {()}
        for segments in file_map:
            dir_set.update(_missing_dirs(file_map, dir_set, segments[:-1]))
        for segments in dirs:
            dir_set.update(_missing_dirs(file_map, dir_set, segments))
        return cls(file_map, frozenset(dir_set))

    def kind_of(self, segments: Segments) -> PathKind | None:
        if segments in self.dirs:
            return PathKind.DIRECTORY
        return PathKind.FILE if segments in self.files else None

    def with_file(self, path: CanonicalPath, digest: str = "") -> "TreeSnapshot":
        """Set the file at ``path``, creating intermediate directories."""
        if not path.is_file:
            raise GitCiteError(f"{path} is not a file path")
        if path.segments in self.dirs:
            raise GitCiteError(f"a directory already exists at {path}")
        missing = _missing_dirs(self.files, self.dirs, path.segments[:-1])
        return TreeSnapshot({**self.files, path.segments: digest}, self.dirs.union(missing))

    def with_dir(self, path: CanonicalPath) -> "TreeSnapshot":
        if not path.is_dir or path.is_root:
            raise GitCiteError(f"{path} is not a directory path")
        missing = _missing_dirs(self.files, self.dirs, path.segments)
        return TreeSnapshot(self.files, self.dirs.union(missing))


def _missing_dirs(
    files: Mapping[Segments, str], dirs: Set[Segments], segments: Segments
) -> list[Segments]:
    """The directory ``segments`` and those of its ancestors that ``dirs``
    lacks, nearest first; a :class:`GitCiteError` if one of them is a file."""
    missing = []
    while segments not in dirs:
        if segments in files:
            raise GitCiteError(f"/{'/'.join(segments)} is a file, not a directory")
        missing.append(segments)
        segments = segments[:-1]
    return missing


class CitationFile:
    """A partial map from canonical paths to citation records.

    Entries iterate in the order they were given, which equality ignores;
    :func:`~gitcite.fileformat.serialize` puts the keys in canonical order.
    Instances are immutable: ``with_entry`` and ``without`` return copies.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[CanonicalPath, CitationRecord] | Iterable[tuple[CanonicalPath, CitationRecord]] = (),
    ):
        self._entries: dict[CanonicalPath, CitationRecord] = dict(entries)

    @classmethod
    def single(cls, record: CitationRecord) -> "CitationFile":
        return cls({ROOT: record})

    def get(self, path: CanonicalPath) -> CitationRecord | None:
        return self._entries.get(path)

    def __contains__(self, path: CanonicalPath) -> bool:
        return path in self._entries

    def __iter__(self) -> Iterator[CanonicalPath]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def as_dict(self) -> dict[CanonicalPath, CitationRecord]:
        return dict(self._entries)

    def with_entry(self, path: CanonicalPath, record: CitationRecord) -> "CitationFile":
        updated = CitationFile(self._entries)
        updated._entries[path] = record
        return updated

    def without(self, path: CanonicalPath) -> "CitationFile":
        updated = CitationFile(self._entries)
        del updated._entries[path]
        return updated

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationFile):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        keys = ", ".join(str(k) for k in self._entries)
        return f"CitationFile([{keys}])"


class Inconsistency(Value):
    """One violated consistency rule, naming the key and the rule broken."""

    __slots__ = ("rule", "path", "detail")

    def __init__(self, rule: str, path: CanonicalPath, detail: str) -> None:
        self._init(rule, path, detail)

    def __str__(self) -> str:
        return f"{self.rule}: {self.path} ({self.detail})"


def resolve_from_entries(cf: CitationFile, path: CanonicalPath) -> CitationRecord:
    """Longest-prefix resolution over the explicit entries alone.

    Picks the deepest entry whose key is the path itself or an ancestor
    directory of it, looking up the path and then each ancestor, nearest
    first, so the cost is the path's depth. Total whenever the root entry is
    present.
    """
    record = cf.get(path)
    if record is not None:
        return record
    for ancestor in path.ancestors():
        record = cf.get(ancestor)
        if record is not None:
            return record
    raise GitCiteError(f"no entry covers {path}; the root entry is required")


def resolve(cf: CitationFile, tree: Tree, path: CanonicalPath) -> CitationRecord:
    """Resolved citation of ``path``: its own entry, or its closest ancestor's."""
    if not tree.contains(path):
        raise PathNotInTree(path)
    return resolve_from_entries(cf, path)


def validate(cf: CitationFile, tree: Tree) -> list[Inconsistency]:
    """Report every way ``cf`` disagrees with ``tree``.

    Clean means: the root entry exists, every key names a node of the tree,
    and every key's kind matches the node's kind. The empty list is the only
    clean answer; repair is left to the caller. Issues are sorted by key.
    """
    issues: list[Inconsistency] = []
    if ROOT not in cf:
        issues.append(Inconsistency(MISSING_ROOT, ROOT, "the root entry is required"))
    for key in cf:
        if key.is_root:
            continue
        kind = tree.kind_of(key.segments)
        if kind is None:
            issues.append(Inconsistency(DANGLING_KEY, key, "no such path in the tree"))
        elif kind is not key.kind:
            issues.append(Inconsistency(KIND_MISMATCH, key, f"key is a {key.kind.value}, tree has a {kind.value}"))
    return sorted(issues, key=lambda issue: issue.path.render())
