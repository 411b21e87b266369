"""In-memory version DAG with citation-carrying operators.

This is the reference semantics for how citation files travel through
commits, branches, copies between repositories, merges, and forks. History
is append-only: versions are immutable once created, and every operation
leaves the head citation file consistent with the head tree. A commit
applies its citation edits to the branch head, so citations change only on
the latest version; anyone may read a resolved citation at any stored
version (:func:`gen_cite`). Mutating operations need exclusive access to
the repository; reads may run concurrently with other reads.

The citation-file algebra itself (checked edits, key rewrite, pruning, copy
migration, merge union) lives in :mod:`gitcite.ops` and is shared with the
git adapter. What the store computes on its own are the tree-level facts:
explicit :class:`TreeEdit` renames and deletes, and the merged file set,
which the adapter instead learns from git.
"""

from __future__ import annotations

import enum
import logging
from typing import Iterable

from .errors import (
    BranchExists,
    EditConflict,
    InvariantBroken,
    NoCommonAncestor,
    SourceVersionUnknown,
    UnknownBranch,
    UnknownVersion,
)
from .model import CitationFile, CitationRecord, Segments, TreeSnapshot, resolve, validate
from .ops import (
    ConflictReport,
    Resolver,
    apply_copy,
    merge_citation_files,
    prune_to_tree,
    rewrite_keys,
)
from .paths import CanonicalPath, PathKind
from .value import Value

logger = logging.getLogger(__name__)


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
                cf = rewrite_keys(cf, [(edit.path, edit.to)])
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

        Trees merge by simplified three-way rules (a both-sides content
        conflict keeps the into-branch's state, with a warning). The citation
        files merge by :func:`gitcite.ops.merge_citation_files` against the
        merged tree.
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
        tree, warnings = _merge_trees(base.tree, left.tree, right.tree)
        for message in warnings:
            logger.warning("%s", message)
        cf, conflicts = merge_citation_files(base.cf, left.cf, right.cf, tree, resolver)
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
        return tree.without(edit.path)
    if edit.kind is TreeEditKind.RENAME:
        return tree.with_renamed(edit.path, edit.to)
    return tree.with_modified(edit.path, edit.digest)


def _merge_trees(
    base: TreeSnapshot, left: TreeSnapshot, right: TreeSnapshot
) -> tuple[TreeSnapshot, list[str]]:
    """Three-way file-set merge; on a true content conflict the left (into)
    side wins and a warning is recorded. The directories are those holding
    a merged file."""
    files: dict[Segments, str] = {}
    changed_on_both: list[CanonicalPath] = []
    for segments in base.files.keys() | left.files.keys() | right.files.keys():
        db, dl, dr = (tree.files.get(segments) for tree in (base, left, right))
        if len({db, dl, dr}) == 3:
            changed_on_both.append(CanonicalPath(segments, PathKind.FILE))
        keep = _three_way(db, dl, dr)
        if keep is not None:
            files[segments] = keep
    warnings = [
        f"both branches changed {path}; keeping the current branch's state"
        for path in sorted(changed_on_both, key=str)
    ]
    return TreeSnapshot.from_files(files), warnings


def _three_way(base, left, right):
    """The left (into) side's state, unless only the right side changed it."""
    return right if base == left else left


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
    tree = head.tree.with_subtree(dst_path, src_version.tree, src_subtree)
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
    for vid in src_repo.ancestor_ids(head_id):
        fork.versions[vid] = src_repo.versions[vid]  # versions are immutable, safe to share
    fork.branches[fork.default_branch] = head_id
    fork._clock = max(v.timestamp for v in fork.versions.values()) + 1
    return fork
