"""In-memory version DAG with citation-carrying operators: the reference
the acceptance suite compares the git adapter against.

This is the reference semantics for how citation files travel through
commits, branches, copies between repositories, merges, and forks. History
is append-only: versions are immutable once created, and every operation
leaves the head citation file consistent with the head tree. A commit
applies its citation edits to the branch head, so citations change only on
the latest version; anyone may read a resolved citation at any stored
version (:func:`gen_cite`). Mutating operations need exclusive access to
the repository; reads may run concurrently with other reads.

The citation-file algebra itself (checked edits, key rewrite, copy
migration, merge union) lives in :mod:`gitcite.ops` and is shared with the
git adapter. What this module computes on its own are the tree-level facts:
explicit :class:`TreeEdit` renames and deletes, applied by the snapshot
edits below, the merged file set, and which keys left the tree. It prunes
each new citation file to its own tree (:func:`prune_to_tree`), where the
adapter prunes the paths git reports deleted, so the two prunes check each
other. Fork semantics are modelled only here (:func:`fork_cite`): a git fork
is a clone, which carries the citation file as it is.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from gitcite.errors import (
    EditConflict,
    GitCiteError,
    InvariantBroken,
    NoCommonAncestor,
    PathNotInTree,
    UnknownVersion,
)
from gitcite.model import CitationFile, CitationRecord, Segments, TreeSnapshot, _missing_dirs, resolve, validate
from gitcite.ops import (
    CONFLICT,
    ConflictReport,
    Resolver,
    apply_copy,
    carry_keys,
    merge_citation_files,
    three_way,
)
from gitcite.paths import CanonicalPath
from gitcite.value import Value


class UnknownBranch(GitCiteError):
    pass


class BranchExists(GitCiteError):
    pass


class SourceVersionUnknown(GitCiteError):
    pass


def with_modified(tree: TreeSnapshot, path: CanonicalPath, digest: str) -> TreeSnapshot:
    if not path.is_file or path.segments not in tree.files:
        raise EditConflict(f"no file at {path}")
    return TreeSnapshot({**tree.files, path.segments: digest}, tree.dirs)


def without(tree: TreeSnapshot, path: CanonicalPath) -> TreeSnapshot:
    """Remove the node at ``path`` (a directory is removed with its subtree)."""
    if path.is_root:
        raise EditConflict("cannot remove the root")
    if not tree.contains(path):
        raise EditConflict(f"no {path.kind.value} at {path}")
    n, gone = len(path.segments), path.segments
    return TreeSnapshot(
        {s: digest for s, digest in tree.files.items() if s[:n] != gone},
        frozenset(s for s in tree.dirs if s[:n] != gone),
    )


def with_renamed(tree: TreeSnapshot, old: CanonicalPath, new: CanonicalPath) -> TreeSnapshot:
    if not tree.contains(old):
        raise EditConflict(f"no {old.kind.value} at {old}")
    if tree.kind_of(new.segments) is not None:
        raise EditConflict(f"{new} already exists")
    if new.is_within(old):
        raise EditConflict(f"cannot move {old} inside itself")
    return _grafted(without(tree, old), new, tree, old)


def with_subtree(
    tree: TreeSnapshot, path: CanonicalPath, src_tree: TreeSnapshot, src_dir: CanonicalPath
) -> TreeSnapshot:
    """Insert a copy of ``src_tree``'s directory ``src_dir`` at the new directory ``path``."""
    if not path.is_dir or path.is_root:
        raise EditConflict(f"{path} is not a valid destination")
    if not src_dir.is_dir or not src_tree.contains(src_dir):
        raise PathNotInTree(src_dir)
    return _grafted(tree, path, src_tree, src_dir)


def _grafted(tree: TreeSnapshot, path: CanonicalPath, src_tree: TreeSnapshot, src: CanonicalPath) -> TreeSnapshot:
    """Place ``src_tree``'s node ``src`` and everything under it at the new ``path``."""
    if tree.kind_of(path.segments) is not None:
        raise EditConflict(f"{path} already exists")
    missing = _missing_dirs(tree.files, tree.dirs, path.segments[:-1])
    n, at = len(src.segments), path.segments
    files = dict(tree.files)
    files.update((at + s[n:], digest) for s, digest in src_tree.files.items() if s[:n] == src.segments)
    dirs = {at + s[n:] for s in src_tree.dirs if s[:n] == src.segments}
    return TreeSnapshot(files, tree.dirs.union(missing, dirs))


def prune_to_tree(cf: CitationFile, tree: TreeSnapshot) -> CitationFile:
    """Drop every entry whose path is not in ``tree``; the root entry stays."""
    return CitationFile({k: v for k, v in cf.items() if k.is_root or tree.contains(k)})


def scripted_resolver(choices: Mapping[str, "str | CitationRecord"]) -> Resolver:
    """Resolver driven by a rendered-path -> "left" | "right" | record table."""

    def _resolve(report: ConflictReport) -> CitationRecord | None:
        choice = choices.get(str(report.key))
        if choice == "left":
            return report.left
        if choice == "right":
            return report.right
        if isinstance(choice, CitationRecord):
            return choice
        return None

    return _resolve


class CiteEditKind(enum.Enum):
    ADD = "add"
    DELETE = "delete"
    MODIFY = "modify"


class CiteEdit(Value):
    """One citation-file edit a commit applies. Delete edits never target the root."""

    __slots__ = ("kind", "path", "record")

    def __init__(self, kind: CiteEditKind, path: CanonicalPath, record: CitationRecord | None = None) -> None:
        if kind is CiteEditKind.DELETE:
            if record is not None:
                raise ValueError("delete edits carry no record")
            if path.is_root:
                raise ValueError("delete edits never target the root")
        elif record is None:
            raise ValueError(f"{kind.value} edits need a record")
        self._init(kind, path, record)

    @classmethod
    def add(cls, path: CanonicalPath, record: CitationRecord) -> "CiteEdit":
        return cls(CiteEditKind.ADD, path, record)

    @classmethod
    def delete(cls, path: CanonicalPath) -> "CiteEdit":
        return cls(CiteEditKind.DELETE, path)

    @classmethod
    def modify(cls, path: CanonicalPath, record: CitationRecord) -> "CiteEdit":
        return cls(CiteEditKind.MODIFY, path, record)


def apply_cite_edits(cf: CitationFile, edits: Iterable[CiteEdit]) -> CitationFile:
    """Apply edits in order; deleting an absent key is a no-op."""
    entries = cf.as_dict()
    for edit in edits:
        if edit.kind is CiteEditKind.DELETE:
            entries.pop(edit.path, None)
        else:
            entries[edit.path] = edit.record
    return CitationFile(entries)


class Version(Value):
    """One commit node: at most two parents, a tree, and a citation file."""

    __slots__ = ("id", "parents", "tree", "cf", "timestamp")

    def __init__(
        self, id: str, parents: tuple[str, ...], tree: TreeSnapshot, cf: CitationFile, timestamp: int
    ) -> None:
        self._init(id, parents, tree, cf, timestamp)


class TreeEditKind(enum.Enum):
    CREATE_FILE = "create_file"
    DELETE = "delete"
    RENAME = "rename"
    MODIFY_CONTENT = "modify_content"


class TreeEdit(Value):
    """One structural edit applied by a commit."""

    __slots__ = ("kind", "path", "to", "digest")

    def __init__(
        self, kind: TreeEditKind, path: CanonicalPath, to: CanonicalPath | None = None, digest: str = ""
    ) -> None:
        if kind is TreeEditKind.RENAME:
            if to is None:
                raise ValueError("rename edits carry both endpoints")
            if path.is_root or to.is_root:
                raise ValueError("the root cannot be renamed")
            if path.is_dir != to.is_dir:
                raise ValueError("rename endpoints must have the same kind")
        else:
            if to is not None:
                raise ValueError(f"{kind.value} edits carry a single path")
            if kind is TreeEditKind.DELETE and path.is_root:
                raise ValueError("the root cannot be deleted")
            if kind in (TreeEditKind.CREATE_FILE, TreeEditKind.MODIFY_CONTENT) and not path.is_file:
                raise ValueError(f"{kind.value} needs a file path")
        self._init(kind, path, to, digest)

    @classmethod
    def create(cls, path: CanonicalPath, digest: str = "") -> "TreeEdit":
        return cls(TreeEditKind.CREATE_FILE, path, digest=digest)

    @classmethod
    def delete(cls, path: CanonicalPath) -> "TreeEdit":
        return cls(TreeEditKind.DELETE, path)

    @classmethod
    def rename(cls, path: CanonicalPath, to: CanonicalPath) -> "TreeEdit":
        return cls(TreeEditKind.RENAME, path, to=to)

    @classmethod
    def modify(cls, path: CanonicalPath, digest: str) -> "TreeEdit":
        return cls(TreeEditKind.MODIFY_CONTENT, path, digest=digest)


class Repository:
    """A DAG of versions plus named branches.

    Citation edits reach a version only through :meth:`commit`.
    Mutation (commit, branch, merge) needs exclusive access; committed
    versions are immutable, so concurrent reads are always safe.
    """

    def __init__(self, repo_id: str, default_branch: str = "main"):
        self.id = repo_id
        self.default_branch = default_branch
        self.versions: dict[str, Version] = {}
        self.branches: dict[str, str] = {}
        self._clock = 0

    @classmethod
    def create(
        cls,
        repo_id: str,
        root_record: CitationRecord,
        tree: TreeSnapshot | None = None,
        branch: str = "main",
    ) -> "Repository":
        """A repository with one initial version citing only the root.
        As in git, the version keeps only the directories that hold a file."""
        repo = cls(repo_id, default_branch=branch)
        tree = TreeSnapshot.from_files(tree.files if tree is not None else {})
        version = repo._new_version((), tree, CitationFile.single(root_record))
        repo.branches[branch] = version.id
        return repo

    def head_id(self, branch: str) -> str:
        try:
            return self.branches[branch]
        except KeyError:
            raise UnknownBranch(f"no branch {branch!r} in {self.id}") from None

    def head(self, branch: str) -> Version:
        return self.versions[self.head_id(branch)]

    def version(self, version_id: str) -> Version:
        try:
            return self.versions[version_id]
        except KeyError:
            raise UnknownVersion(f"no version {version_id!r} in {self.id}") from None

    def _new_version(self, parents: tuple[str, ...], tree: TreeSnapshot, cf: CitationFile) -> Version:
        issues = validate(cf, tree)
        if issues:
            raise InvariantBroken("; ".join(str(i) for i in issues))
        self._clock += 1
        version = Version(f"v{self._clock}", parents, tree, cf, self._clock)
        self.versions[version.id] = version
        return version

    def commit(
        self,
        branch: str,
        tree_edits: Iterable[TreeEdit] = (),
        cite_edits: Iterable[CiteEdit] = (),
    ) -> Version:
        """Advance ``branch`` by one version.

        The new citation file is the head's with, in order: the citation
        edits applied; every key under a renamed path rewritten by prefix
        substitution; every key whose path left the tree removed. The root
        entry always survives. As in git, a directory left with no file
        leaves the tree.
        """
        head = self.head(branch)
        tree_edits = list(tree_edits)
        tree = head.tree
        for edit in tree_edits:
            tree = _apply_tree_edit(tree, edit)
        tree = TreeSnapshot.from_files(tree.files)
        cf = apply_cite_edits(head.cf, cite_edits)
        for edit in tree_edits:
            if edit.kind is TreeEditKind.RENAME:
                cf = carry_keys(cf, [(edit.path, edit.to)])
        cf = prune_to_tree(cf, tree)
        version = self._new_version((head.id,), tree, cf)
        self.branches[branch] = version.id
        return version

    def add_branch(self, name: str, from_version: str) -> str:
        if name in self.branches:
            raise BranchExists(f"branch {name!r} already exists")
        self.version(from_version)  # existence check
        self.branches[name] = from_version
        return name

    def ancestor_ids(self, version_id: str) -> set[str]:
        """The version and every transitive parent."""
        seen: set[str] = set()
        queue = [version_id]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.version(current).parents)
        return seen

    def merge_base(self, a: str, b: str) -> str | None:
        common = self.ancestor_ids(a) & self.ancestor_ids(b)
        if not common:
            return None
        return max(common, key=lambda vid: self.versions[vid].timestamp)

    def merge(
        self,
        into_branch: str,
        from_branch: str,
        resolver: Resolver | None = None,
    ) -> tuple[Version, list[ConflictReport]]:
        """Merge ``from_branch`` into ``into_branch``, citations included.

        Each file merges by :func:`gitcite.ops.three_way` on its digest,
        absence included; a file both sides changed differently (a content,
        modify/delete or add/add conflict) raises
        :class:`~gitcite.errors.EditConflict` and leaves the repository as it
        was. The citation files merge by
        :func:`gitcite.ops.merge_citation_files`, pruned to the merged tree.
        """
        into_id = self.head_id(into_branch)
        from_id = self.head_id(from_branch)
        if into_id == from_id:
            return self.version(into_id), []
        base_id = self.merge_base(into_id, from_id)
        if base_id is None:
            raise NoCommonAncestor(f"{into_branch!r} and {from_branch!r} share no history")
        if base_id == from_id:
            return self.version(into_id), []  # nothing new on the other side
        if base_id == into_id:
            self.branches[into_branch] = from_id  # fast-forward
            return self.version(from_id), []
        base = self.version(base_id)
        left = self.version(into_id)
        right = self.version(from_id)
        tree = _merge_trees(base.tree, left.tree, right.tree)
        cf, conflicts = merge_citation_files(base.cf, left.cf, right.cf, resolver)
        cf = prune_to_tree(cf, tree)
        version = self._new_version((into_id, from_id), tree, cf)
        self.branches[into_branch] = version.id
        return version, conflicts


def gen_cite(repo: Repository, version_id: str, path: CanonicalPath) -> CitationRecord:
    """Resolved citation of ``path`` at any stored version. Read-only."""
    version = repo.version(version_id)
    return resolve(version.cf, version.tree, path)


def _apply_tree_edit(tree: TreeSnapshot, edit: TreeEdit) -> TreeSnapshot:
    if edit.kind is TreeEditKind.CREATE_FILE:
        if tree.kind_of(edit.path.segments) is not None:
            raise EditConflict(f"{edit.path} already exists")
        return tree.with_file(edit.path, edit.digest)
    if edit.kind is TreeEditKind.DELETE:
        return without(tree, edit.path)
    if edit.kind is TreeEditKind.RENAME:
        return with_renamed(tree, edit.path, edit.to)
    return with_modified(tree, edit.path, edit.digest)


def _merge_trees(base: TreeSnapshot, left: TreeSnapshot, right: TreeSnapshot) -> TreeSnapshot:
    """Three-way file-set merge by :func:`gitcite.ops.three_way`. A file
    that both sides changed differently raises :class:`EditConflict` naming
    every such path. The directories are those holding a merged file."""
    files: dict[Segments, str] = {}
    conflicted: list[str] = []
    for segments in sorted(base.files.keys() | left.files.keys() | right.files.keys()):
        digest = three_way(*(tree.files.get(segments) for tree in (base, left, right)))
        if digest is CONFLICT:
            conflicted.append("/".join(segments))
        elif digest is not None:
            files[segments] = digest
    if conflicted:
        raise EditConflict(f"merge refused: both branches changed {', '.join(conflicted)}")
    return TreeSnapshot.from_files(files)


def copy_cite(
    src_repo: Repository,
    src_version_id: str,
    src_subtree: CanonicalPath,
    dst_repo: Repository,
    dst_branch: str,
    dst_path: CanonicalPath,
) -> Version:
    """Copy a directory subtree between repositories, migrating its citations
    by :func:`gitcite.ops.apply_copy`."""
    try:
        src_version = src_repo.versions[src_version_id]
    except KeyError:
        raise SourceVersionUnknown(f"no version {src_version_id!r} in {src_repo.id}") from None
    head = dst_repo.head(dst_branch)
    cf, _ = apply_copy(head.cf, head.tree, src_version.cf, src_version.tree, src_subtree, dst_path)
    tree = with_subtree(head.tree, dst_path, src_version.tree, src_subtree)
    version = dst_repo._new_version((head.id,), tree, cf)
    dst_repo.branches[dst_branch] = version.id
    return version


def fork_cite(
    src_repo: Repository,
    version_id: str | None = None,
    new_repo_id: str | None = None,
) -> Repository:
    """A new repository holding one version and its full history.

    Trees and citation files are copied verbatim; the fork's root citation
    still names the original repository until its owner modifies it.
    """
    head_id = version_id if version_id is not None else src_repo.head_id(src_repo.default_branch)
    if head_id not in src_repo.versions:
        raise UnknownVersion(f"no version {head_id!r} in {src_repo.id}")
    fork = Repository(new_repo_id or f"{src_repo.id}-fork", default_branch=src_repo.default_branch)
    ancestors = src_repo.ancestor_ids(head_id)  # copied in the source's order; versions are immutable, safe to share
    fork.versions = {vid: version for vid, version in src_repo.versions.items() if vid in ancestors}
    fork.branches[fork.default_branch] = head_id
    fork._clock = max(v.timestamp for v in fork.versions.values()) + 1
    return fork
