"""The citation-file algebra and its merge resolvers.

This module holds the one implementation of each way a citation file
changes: a checked add, delete or modify (:func:`apply_add`,
:func:`apply_delete`, :func:`apply_modify`), carrying the keys across the
renames and deletions of one tree change (:func:`carry_keys`), subtree
migration on copy (:func:`apply_copy`) and the three-way merge
(:func:`three_way` for one value and :func:`merge_citation_files` for a
whole file). None of them touches a repository; the caller works out which
paths were renamed or deleted, at a commit and at a merge alike.
:func:`carry_keys` applies a whole list of renames and deletions
simultaneously in one pass over the keys, so a commit that renames a
thousand files costs one rebuild of the citation file, not one per rename.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .errors import GitCiteError, PathNotInTree
from .model import CitationFile, CitationRecord, resolve
from .paths import CanonicalPath, Tree
from .value import Value


def apply_add(cf: CitationFile, tree: Tree, path: CanonicalPath, record: CitationRecord) -> CitationFile:
    """Attach a citation to an uncited path that exists in the tree."""
    if not tree.contains(path):
        raise PathNotInTree(path)
    if path in cf:
        raise GitCiteError(f"{path} already has a citation; modify it instead")
    return cf.with_entry(path, record)


def apply_delete(cf: CitationFile, path: CanonicalPath) -> CitationFile:
    """Remove an explicit citation; the subtree falls back to the next ancestor."""
    if path.is_root:
        raise GitCiteError("the root citation cannot be deleted")
    if path not in cf:
        raise GitCiteError(f"{path} has no citation")
    return cf.without(path)


def apply_modify(cf: CitationFile, path: CanonicalPath, record: CitationRecord) -> CitationFile:
    """Replace an explicit citation; the active domain is unchanged."""
    if path not in cf:
        raise GitCiteError(f"{path} has no citation")
    return cf.with_entry(path, record)


def _covering_dirs(key: CanonicalPath) -> Iterator[tuple[str, ...]]:
    """Segments of every directory whose entry would cover ``key``, deepest
    first: the key itself when it is a directory, then its ancestors up to
    the root's ``()``."""
    segments = key.segments
    top = len(segments) if key.is_dir else len(segments) - 1
    return (segments[:n] for n in range(top, -1, -1))


def carry_keys(
    cf: CitationFile,
    renames: Iterable[tuple[CanonicalPath, CanonicalPath]] = (),
    deleted: Iterable[CanonicalPath] = (),
) -> CitationFile:
    """Carry the keys across one tree change: every ``(old, new)`` rename and
    every deleted path at once.

    Both lists name paths of the tree before the change, as git reports them.
    Each key follows its own file rename if it has one, else the renamed
    directory with the deepest ``old`` path covering it. A key that no rename
    moves is dropped when a deleted path covers it: a deleted file its own
    key, a deleted directory every key at or below it. The root entry stays.
    Two keys that land on one path raise :class:`GitCiteError`; nothing
    is overwritten. The cost is one pass over the keys, each walking its own
    depth.
    """
    file_moves: dict[CanonicalPath, CanonicalPath] = {}
    dir_moves: dict[tuple[str, ...], tuple[CanonicalPath, CanonicalPath]] = {}
    for old, new in renames:
        if old.is_file:
            file_moves[old] = new
        else:
            dir_moves[old.segments] = (old, new)
    gone = set(deleted)
    gone_dirs = {path.segments for path in gone if path.is_dir}
    entries: dict[CanonicalPath, CitationRecord] = {}
    for key, record in cf.items():
        moved = file_moves.get(key)
        if moved is None:
            moved, covered = key, key in gone
            for prefix in _covering_dirs(key):
                if prefix in dir_moves:
                    moved, covered = key.rebased(*dir_moves[prefix]), False
                    break
                covered = covered or prefix in gone_dirs
            if covered and not key.is_root:
                continue
        if moved in entries:
            raise GitCiteError(f"key rewrite puts two entries at {moved}")
        entries[moved] = record
    return CitationFile(entries)


def apply_copy(
    cf: CitationFile,
    tree: Tree,
    src_cf: CitationFile,
    src_tree: Tree,
    src_subtree: CanonicalPath,
    dst_path: CanonicalPath,
) -> tuple[CitationFile, list[CanonicalPath]]:
    """Migrate the citations of a directory copied to the new ``dst_path``.

    Every explicit entry inside the source subtree is carried over with its
    key prefix rewritten to the destination, and the destination directory
    itself gains an explicit entry holding the source subtree's resolved
    citation, so every copied node keeps the citation it had at the source.
    ``tree`` is the destination before the copy. Returns the new citation
    file and the added keys, sorted.
    """
    if not src_subtree.is_dir or not src_tree.contains(src_subtree):
        raise GitCiteError(f"{src_subtree} is not a directory of the source")
    if not dst_path.is_dir or dst_path.is_root:
        raise GitCiteError(f"{dst_path} is not a valid destination directory")
    if tree.kind_of(dst_path.segments) is not None:
        raise GitCiteError(f"{dst_path} already exists")
    parent = dst_path.parent()
    if not tree.contains(parent):
        raise GitCiteError(f"destination parent {parent} does not exist")
    entries = cf.as_dict()
    added = {dst_path}
    for key, record in src_cf.items():
        if key.is_within(src_subtree):
            moved = key.rebased(src_subtree, dst_path)
            entries[moved] = record
            added.add(moved)
    entries[dst_path] = resolve(src_cf, src_tree, src_subtree)
    return CitationFile(entries), sorted(added)


class ConflictReport(Value):
    """Two branches cite the same key with different records, and the record
    the merge kept: None while the conflict waits for the resolver."""

    __slots__ = ("key", "left", "right", "record")

    def __init__(
        self, key: CanonicalPath, left: CitationRecord, right: CitationRecord, record: CitationRecord | None = None
    ) -> None:
        if left == right:
            raise ValueError("a conflict needs two differing records")
        self._init(key, left, right, record)

    @property
    def resolution(self) -> str:
        """``pending``, ``chose_left``, ``chose_right`` or ``replaced`` (by a record of neither side)."""
        if self.record is None:
            return "pending"
        if self.record == self.left:
            return "chose_left"
        return "chose_right" if self.record == self.right else "replaced"


Resolver = Callable[[ConflictReport], "CitationRecord | None"]


def choose_left(report: ConflictReport) -> CitationRecord:
    return report.left


def choose_right(report: ConflictReport) -> CitationRecord:
    return report.right


CONFLICT = object()  # what three_way returns when both sides changed a value, differently


def three_way(base, left, right):
    """One value merged three ways, ``None`` standing for absent: a side that
    left the value as it was in ``base`` yields to the other side. When both
    sides changed it, to different values, the result is :data:`CONFLICT`."""
    if base == left:
        return right
    if base == right or left == right:
        return left
    return CONFLICT


def merge_citation_files(
    base: CitationFile,
    left: CitationFile,
    right: CitationFile,
    resolver: Resolver | None = None,
) -> tuple[CitationFile, list[ConflictReport]]:
    """Three-way union of two branches' citation files.

    Every key of ``base``, ``left`` and ``right`` merges by :func:`three_way`,
    with "no entry" as a value: a citation added, changed or deleted on one
    side only takes that side's state, so a deletion survives the merge. A
    key that one side deleted and the other changed keeps the changed record
    (a modify outlives a delete). A key both sides changed to different
    records goes to the resolver, and no answer raises
    :class:`GitCiteError`. No key is pruned here: the caller drops the
    keys of paths the merge deleted with :func:`carry_keys`.
    """
    merged: dict[CanonicalPath, CitationRecord] = {}
    conflicts: list[ConflictReport] = []
    for key in sorted(base.keys() | left.keys() | right.keys(), key=CanonicalPath.render):
        from_left, from_right = left.get(key), right.get(key)
        record = three_way(base.get(key), from_left, from_right)
        if record is CONFLICT:
            if from_left is None or from_right is None:
                record = from_right if from_left is None else from_left  # a modify outlives a delete
            else:
                pending = ConflictReport(key, from_left, from_right)
                record = resolver(pending) if resolver is not None else None
                if record is None:
                    raise GitCiteError(f"unresolved citation conflict at {key}")
                conflicts.append(ConflictReport(key, from_left, from_right, record))
        if record is not None:
            merged[key] = record
    return CitationFile(merged), conflicts
