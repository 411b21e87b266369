"""Core citation model: records, citation files, tree snapshots, resolution.

A citation file is a partial map from canonical paths to citation records.
The root entry is always expected to be present, so every node of a version
tree resolves to a record: its own entry if it has one, otherwise the entry
of its closest ancestor directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .errors import EditConflict, MissingRoot, PathNotInTree
from .paths import ROOT, CanonicalPath, PathKind, from_rendered

RECORD_FIELDS = ("owner", "repo_name", "locator", "version_id", "date", "author_list", "extras")

# Inconsistency rules reported by validate().
MISSING_ROOT = "missing_root"
DANGLING_KEY = "dangling_key"
KIND_MISMATCH = "kind_mismatch"


@dataclass(frozen=True)
class CitationRecord:
    """One citation: the snippets a reader needs to credit and locate code.

    ``owner``, ``repo_name`` and ``locator`` (URL or DOI) are required.
    ``extras`` holds additional free-form snippets; its keys may not shadow
    the named fields and are kept in sorted order so equal records always
    serialize identically.
    """

    owner: str
    repo_name: str
    locator: str
    version_id: str = ""
    date: str = ""
    author_list: tuple[str, ...] = ()
    extras: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("owner", "repo_name", "locator"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        object.__setattr__(self, "author_list", tuple(self.author_list))
        extras = dict(sorted(self.extras.items()))
        for key, value in extras.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError("extras must map strings to strings")
            if key in RECORD_FIELDS:
                raise ValueError(f"extras key {key!r} shadows a named field")
        object.__setattr__(self, "extras", extras)


@dataclass(frozen=True)
class FileNode:
    name: str
    digest: str = ""


@dataclass(frozen=True)
class DirNode:
    name: str
    children: Mapping[str, Union["DirNode", FileNode]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = self.children.values() if isinstance(self.children, Mapping) else self.children
        ordered: dict[str, DirNode | FileNode] = {}
        for node in sorted(nodes, key=lambda n: n.name):
            if not node.name or node.name in (".", "..") or "/" in node.name or "\\" in node.name:
                raise ValueError(f"bad node name {node.name!r}")
            if node.name in ordered:
                raise ValueError(f"duplicate sibling name {node.name!r}")
            ordered[node.name] = node
        object.__setattr__(self, "children", ordered)

    def child(self, name: str) -> "DirNode | FileNode | None":
        return self.children.get(name)


TreeNode = Union[DirNode, FileNode]


@dataclass(frozen=True)
class TreeSnapshot:
    """An immutable snapshot of one version's directory tree.

    Interior nodes are directories, leaves are files with an opaque content
    digest. All structural edits return a new snapshot.
    """

    root: DirNode = field(default_factory=lambda: DirNode(""))

    @classmethod
    def from_files(
        cls,
        files: Mapping[str | CanonicalPath, str] | Iterable[str | CanonicalPath] = (),
        dirs: Iterable[str | CanonicalPath] = (),
    ) -> "TreeSnapshot":
        """Build a snapshot from file paths (optionally path -> digest) plus extra directories.

        The result and the errors are those of folding :meth:`with_file` over
        ``files`` and then :meth:`with_dir` over ``dirs``: a later digest for
        the same file wins. Directories are collected as plain dicts first
        (a ``dict`` value is a subdirectory, any other a file's digest) and
        each is frozen into a :class:`DirNode` once, so the build is linear
        in the number of path segments apart from one sort per directory.
        """
        root: dict = {}
        pairs = files.items() if isinstance(files, Mapping) else ((p, "") for p in files)
        for raw, digest in pairs:
            path = _as_path(raw)
            if not path.is_file:
                raise EditConflict(f"{path} is not a file path")
            parent = _plain_dir(root, path.segments[:-1])
            if isinstance(parent.get(path.name), dict):
                raise EditConflict(f"a directory already exists at {path}")
            parent[path.name] = digest
        for raw in dirs:
            path = _as_path(raw)
            if not path.is_dir or path.is_root:
                raise EditConflict(f"{path} is not a directory path")
            parent = _plain_dir(root, path.segments[:-1])
            if not isinstance(parent.setdefault(path.name, {}), dict):
                raise EditConflict(f"a file already exists at {path}")
        return cls(_freeze("", root))

    def node_by_name(self, segments: tuple[str, ...]) -> TreeNode | None:
        """Walk by name only, ignoring the query's kind."""
        node: TreeNode = self.root
        for segment in segments:
            if not isinstance(node, DirNode):
                return None
            nxt = node.child(segment)
            if nxt is None:
                return None
            node = nxt
        return node

    def kind_of(self, segments: tuple[str, ...]) -> PathKind | None:
        node = self.node_by_name(segments)
        if node is None:
            return None
        if not segments:
            return PathKind.ROOT
        return PathKind.DIRECTORY if isinstance(node, DirNode) else PathKind.FILE

    def contains(self, path: CanonicalPath) -> bool:
        node = self.node_by_name(path.segments)
        if node is None:
            return False
        return isinstance(node, DirNode) == path.is_dir

    def node_at(self, path: CanonicalPath) -> TreeNode | None:
        node = self.node_by_name(path.segments)
        if node is None or isinstance(node, DirNode) != path.is_dir:
            return None
        return node

    def digest_at(self, path: CanonicalPath) -> str:
        node = self.node_at(path)
        if not isinstance(node, FileNode):
            raise PathNotInTree(str(path))
        return node.digest

    def paths(self) -> list[CanonicalPath]:
        """Every node of the tree, root included, in rendered order."""
        out = [ROOT]

        def walk(node: DirNode, prefix: tuple[str, ...]) -> None:
            for name, child in node.children.items():
                segments = prefix + (name,)
                if isinstance(child, DirNode):
                    out.append(CanonicalPath(segments, PathKind.DIRECTORY))
                    walk(child, segments)
                else:
                    out.append(CanonicalPath(segments, PathKind.FILE))

        walk(self.root, ())
        return sorted(out)

    def file_paths(self) -> list[CanonicalPath]:
        return [p for p in self.paths() if p.is_file]

    def dir_paths(self) -> list[CanonicalPath]:
        return [p for p in self.paths() if p.kind is PathKind.DIRECTORY]

    def with_file(self, path: CanonicalPath, digest: str = "") -> "TreeSnapshot":
        """Set the file at ``path``, creating intermediate directories."""
        if not path.is_file:
            raise EditConflict(f"{path} is not a file path")

        def update(parent: DirNode) -> DirNode:
            existing = parent.child(path.name)
            if isinstance(existing, DirNode):
                raise EditConflict(f"a directory already exists at {path}")
            children = dict(parent.children)
            children[path.name] = FileNode(path.name, digest)
            return DirNode(parent.name, children)

        return TreeSnapshot(_rebuild(self.root, path.segments[:-1], update, create=True))

    def with_dir(self, path: CanonicalPath) -> "TreeSnapshot":
        if not path.is_dir or path.is_root:
            raise EditConflict(f"{path} is not a directory path")

        def update(parent: DirNode) -> DirNode:
            existing = parent.child(path.name)
            if isinstance(existing, FileNode):
                raise EditConflict(f"a file already exists at {path}")
            if isinstance(existing, DirNode):
                return parent
            children = dict(parent.children)
            children[path.name] = DirNode(path.name)
            return DirNode(parent.name, children)

        return TreeSnapshot(_rebuild(self.root, path.segments[:-1], update, create=True))

    def with_modified(self, path: CanonicalPath, digest: str) -> "TreeSnapshot":
        if self.node_at(path) is None or not path.is_file:
            raise EditConflict(f"no file at {path}")
        return self.with_file(path, digest)

    def without(self, path: CanonicalPath) -> "TreeSnapshot":
        """Remove the node at ``path`` (a directory is removed with its subtree)."""
        if path.is_root:
            raise EditConflict("cannot remove the root")

        def update(parent: DirNode) -> DirNode:
            node = parent.child(path.name)
            if node is None or isinstance(node, DirNode) != path.is_dir:
                raise EditConflict(f"no {path.kind.value} at {path}")
            children = dict(parent.children)
            del children[path.name]
            return DirNode(parent.name, children)

        return TreeSnapshot(_rebuild(self.root, path.segments[:-1], update, create=False))

    def with_renamed(self, old: CanonicalPath, new: CanonicalPath) -> "TreeSnapshot":
        node = self.node_at(old)
        if node is None:
            raise EditConflict(f"no {old.kind.value} at {old}")
        if self.node_by_name(new.segments) is not None:
            raise EditConflict(f"{new} already exists")
        if old.is_dir and new.is_within(old):
            raise EditConflict(f"cannot move {old} inside itself")
        if isinstance(node, DirNode):
            renamed: TreeNode = DirNode(new.name, node.children)
        else:
            renamed = FileNode(new.name, node.digest)
        return self.without(old)._with_node(new, renamed)

    def subtree(self, path: CanonicalPath) -> DirNode:
        node = self.node_at(path)
        if not isinstance(node, DirNode):
            raise PathNotInTree(str(path))
        return node

    def with_subtree(self, path: CanonicalPath, subtree: DirNode) -> "TreeSnapshot":
        """Insert a copy of ``subtree`` at the directory path ``path``."""
        if not path.is_dir or path.is_root:
            raise EditConflict(f"{path} is not a valid destination")
        return self._with_node(path, DirNode(path.name, subtree.children))

    def _with_node(self, path: CanonicalPath, node: TreeNode) -> "TreeSnapshot":
        def update(parent: DirNode) -> DirNode:
            if parent.child(path.name) is not None:
                raise EditConflict(f"{path} already exists")
            children = dict(parent.children)
            children[path.name] = node
            return DirNode(parent.name, children)

        return TreeSnapshot(_rebuild(self.root, path.segments[:-1], update, create=True))


def _rebuild(node: DirNode, segments: tuple[str, ...], update, create: bool) -> DirNode:
    """Apply ``update`` to the directory at ``segments``, rebuilding the spine."""
    if not segments:
        return update(node)
    name, rest = segments[0], segments[1:]
    child = node.child(name)
    if child is None:
        if not create:
            raise EditConflict(f"missing directory {name!r}")
        child = DirNode(name)
    if not isinstance(child, DirNode):
        raise EditConflict(f"{name!r} is a file, not a directory")
    children = dict(node.children)
    children[name] = _rebuild(child, rest, update, create)
    return DirNode(node.name, children)


def _plain_dir(root: dict, segments: tuple[str, ...]) -> dict:
    """The plain directory at ``segments`` under ``root``, created as needed."""
    node = root
    for name in segments:
        node = node.setdefault(name, {})
        if not isinstance(node, dict):
            raise EditConflict(f"{name!r} is a file, not a directory")
    return node


def _freeze(name: str, plain: dict) -> DirNode:
    return DirNode(
        name,
        [_freeze(child, value) if isinstance(value, dict) else FileNode(child, value)
         for child, value in plain.items()],
    )


def _as_path(raw: str | CanonicalPath) -> CanonicalPath:
    return raw if isinstance(raw, CanonicalPath) else from_rendered(raw)


class CitationFile:
    """A partial map from canonical paths to citation records.

    Entries iterate in rendered-path byte order, which makes serialization
    and comparison deterministic. Instances are immutable; the ``with_*``
    methods return updated copies.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[CanonicalPath, CitationRecord] | Iterable[tuple[CanonicalPath, CitationRecord]] = (),
    ):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        self._entries: dict[CanonicalPath, CitationRecord] = dict(
            sorted(pairs, key=lambda kv: str(kv[0]))
        )

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
        entries = dict(self._entries)
        entries[path] = record
        return CitationFile(entries)

    def without(self, path: CanonicalPath) -> "CitationFile":
        entries = dict(self._entries)
        del entries[path]
        return CitationFile(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationFile):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        keys = ", ".join(str(k) for k in self._entries)
        return f"CitationFile([{keys}])"


@dataclass(frozen=True)
class Inconsistency:
    """One violated consistency rule, naming the key and the rule broken."""

    rule: str
    path: CanonicalPath
    detail: str

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
    raise MissingRoot(f"no entry covers {path}; the root entry is required")


def resolve(cf: CitationFile, tree: TreeSnapshot, path: CanonicalPath) -> CitationRecord:
    """Resolved citation of ``path``: its own entry, or its closest ancestor's."""
    if not tree.contains(path):
        raise PathNotInTree(str(path))
    return resolve_from_entries(cf, path)


def validate(cf: CitationFile, tree: TreeSnapshot) -> list[Inconsistency]:
    """Report every way ``cf`` disagrees with ``tree``.

    Clean means: the root entry exists, every key names a node of the tree,
    and every key's kind matches the node's kind. The empty list is the only
    clean answer; repair is left to the caller.
    """
    issues: list[Inconsistency] = []
    if ROOT not in cf:
        issues.append(Inconsistency(MISSING_ROOT, ROOT, "the root entry is required"))
    for key in cf:
        if key.is_root:
            continue
        node = tree.node_by_name(key.segments)
        if node is None:
            issues.append(Inconsistency(DANGLING_KEY, key, "no such path in the tree"))
        elif isinstance(node, DirNode) != key.is_dir:
            found = "directory" if isinstance(node, DirNode) else "file"
            issues.append(Inconsistency(KIND_MISMATCH, key, f"key is a {key.kind.value}, tree has a {found}"))
    return issues
