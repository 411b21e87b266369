"""The file-identity model: the oracle the git scenarios check the adapter against.

Every file gets an identity when it is first written, every directory when
it is first cited, and the root has one of its own. Each commit keeps every
identity's path, its content digest (files only) and the citation record
attached to it; the commit's parents are the only history kept, which is
all a merge base needs. The rules are written here from the paper's
semantics, not taken from :mod:`gitcite.ops`, so the two implementations
check each other:

- a rename moves an identity, or every identity under a directory together
  with the directory's own;
- a delete drops an identity, and a directory's identity goes at the commit
  that leaves no file under it, as git forgets an empty directory;
- a copy gives every copied node a new identity under the destination, and
  the destination directory the source subtree's resolved record;
- a merge merges each identity three ways, its path, digest and record each
  on their own (:func:`merge_states`);
- the expected citation file is :func:`citation_file` of a state.

A fork is a ``git clone``, which carries the citation file as it is, so
nothing here models it.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple

from gitcite.model import CitationFile, CitationRecord
from gitcite.paths import ROOT, CanonicalPath


class Node(NamedTuple):
    path: CanonicalPath
    digest: str | None  # a file's content; None for a directory
    record: CitationRecord | None


State = dict[int, Node]  # identity -> node
Conflict = tuple[str, str]  # (rendered key, "chose_left" | "chose_right")


class MergeRefused(Exception):
    """Both sides changed one file's path or content differently, or put two files at one path."""


def citation_file(state: State) -> CitationFile:
    """The expected citation file: each identity's record at its path."""
    return CitationFile({node.path: node.record for node in state.values() if node.record is not None})


def covers(key: CanonicalPath, node: CanonicalPath) -> bool:
    """True when a citation entry at ``key`` applies to ``node``: the key
    itself, or anything inside the directory ``key``."""
    return node.is_within(key) if key.is_dir else key == node


def file_paths(state: State) -> list[str]:
    return sorted(str(node.path) for node in state.values() if node.path.is_file)


def resolved(state: State, path: CanonicalPath) -> CitationRecord:
    """The record of the deepest cited node at or above ``path``."""
    covering = [node for node in state.values() if node.record is not None and covers(node.path, path)]
    return max(covering, key=lambda node: len(node.path.segments)).record


def _settled(state: State) -> State:
    """``state`` less every directory identity with no file under it."""
    files = [node.path for node in state.values() if node.path.is_file]
    return {
        ident: node
        for ident, node in state.items()
        if node.path.is_file or node.path.is_root or any(f.is_within(node.path) for f in files)
    }


_CLASH = object()


def _pick(base, left, right):
    """One field merged three ways: a side that kept the base's value yields
    to the other; two different changes clash."""
    if left == right or right == base:
        return left
    return right if left == base else _CLASH


def _merged_record(base, left: Node, right: Node, path, choices, conflicts: list[Conflict]):
    record = _pick(base, left.record, right.record)
    if record is not _CLASH:
        return record
    if left.record is None or right.record is None:
        return left.record or right.record  # a changed record outlives a deleted one
    choice = choices[str(path)]  # a conflict the scenario did not script is a KeyError
    conflicts.append((str(path), f"chose_{choice}"))
    return left.record if choice == "left" else right.record


def merge_states(
    base: State, left: State, right: State, choices: Mapping[str, str]
) -> tuple[State, list[Conflict]]:
    """Merge two heads identity by identity.

    An identity that only one side has was made there. One that a side
    dropped stays dropped, unless the other side moved or edited the file,
    which git refuses, or changed the directory's record, which is kept.
    Otherwise path, digest and record merge three ways each; two different
    paths or digests are refused, and two different records go to
    ``choices``, keyed by the rendered merged path. Two identities that land
    on one path, such as a directory both sides cited, are one node when
    they have the same content (an add/add git merges), and are refused
    otherwise; their records merge as if neither was in the base.
    """
    merged: State = {}
    conflicts: list[Conflict] = []
    refused: list[str] = []
    for ident in sorted(base.keys() | left.keys() | right.keys()):
        b, l, r = base.get(ident), left.get(ident), right.get(ident)
        if b is None:  # identities are never reused, so only one side made it
            merged[ident] = l or r
        elif l is None or r is None:
            kept = l or r
            if kept is None:
                continue
            if kept.path.is_file and (kept.path, kept.digest) != (b.path, b.digest):
                refused.append(str(b.path))  # a rename/delete or modify/delete
            elif kept.path.is_dir and kept.record != b.record:
                merged[ident] = kept
        else:
            path, digest = _pick(b.path, l.path, r.path), _pick(b.digest, l.digest, r.digest)
            if path is _CLASH or digest is _CLASH:
                refused.append(str(b.path))
            else:
                merged[ident] = Node(path, digest, _merged_record(b.record, l, r, path, choices, conflicts))
    at: dict[CanonicalPath, int] = {}
    for ident in sorted(merged):
        first = at.setdefault(merged[ident].path, ident)
        if first != ident:  # an add/add
            one, two = merged[first], merged.pop(ident)
            if one.digest != two.digest:
                refused.append(str(one.path))
            else:
                ours, theirs = (one, two) if first in left else (two, one)
                merged[first] = one._replace(record=_merged_record(None, ours, theirs, one.path, choices, conflicts))
    if refused:
        raise MergeRefused(f"both branches changed {', '.join(sorted(refused))}")
    return _settled(merged), sorted(conflicts)


class Model:
    """One repository: its commits, its branches and the working state of
    the branch checked out. Edits change the working state; :meth:`commit`
    records it."""

    def __init__(self, root_record: CitationRecord):
        self._ids = itertools.count(1)
        self.parents: dict[int, tuple[int, ...]] = {0: ()}
        self.commits: dict[int, State] = {0: {0: Node(ROOT, None, root_record)}}
        self.branches = {"main": 0}
        self.branch = "main"
        self.work: State = dict(self.commits[0])

    @property
    def head(self) -> int:
        return self.branches[self.branch]

    def _at(self, path: CanonicalPath) -> int | None:
        return next((ident for ident, node in self.work.items() if node.path == path), None)

    def _under(self, path: CanonicalPath) -> list[int]:
        found = [ident for ident, node in self.work.items() if covers(path, node.path)]
        if not found or path.is_root:
            raise KeyError(f"nothing to change at {path}")
        return found

    # -- working-state edits ----------------------------------------------

    def write(self, path: CanonicalPath, digest: str) -> None:
        ident = self._at(path)
        if ident is None:
            self.work[next(self._ids)] = Node(path, digest, None)
        else:
            self.work[ident] = self.work[ident]._replace(digest=digest)

    def remove(self, path: CanonicalPath) -> None:
        for ident in self._under(path):
            del self.work[ident]

    def move(self, old: CanonicalPath, new: CanonicalPath) -> None:
        for ident in self._under(old):
            node = self.work[ident]
            self.work[ident] = node._replace(path=node.path.rebased(old, new))

    def cite(self, path: CanonicalPath, record: CitationRecord) -> None:
        """Attach ``record`` to the node at ``path``, or replace its record."""
        ident = self._at(path)
        if ident is None:
            self.work[next(self._ids)] = Node(path, None, record)
        else:
            self.work[ident] = self.work[ident]._replace(record=record)

    def uncite(self, path: CanonicalPath) -> None:
        ident = self._at(path)
        if path.is_dir:
            del self.work[ident]
        else:
            self.work[ident] = self.work[ident]._replace(record=None)

    def copy(self, source: State, src_dir: CanonicalPath, dst: CanonicalPath) -> None:
        """Copy ``source``'s directory ``src_dir`` to the new directory ``dst``."""
        for node in source.values():
            if node.path.is_within(src_dir) and node.path != src_dir:
                self.work[next(self._ids)] = node._replace(path=node.path.rebased(src_dir, dst))
        self.work[next(self._ids)] = Node(dst, None, resolved(source, src_dir))

    # -- history -----------------------------------------------------------

    def _advance(self, parents: tuple[int, ...], state: State) -> None:
        commit = next(self._ids)
        self.parents[commit] = parents
        self.commits[commit] = state
        self.branches[self.branch] = commit
        self.work = dict(state)

    def commit(self) -> None:
        self._advance((self.head,), _settled(self.work))

    def add_branch(self, name: str) -> None:
        """Start branch ``name`` at the head and check it out."""
        if name in self.branches:
            raise ValueError(f"branch {name!r} already exists")
        self.branches[name] = self.head
        self.branch = name

    def checkout(self, name: str) -> None:
        self.branch = name
        self.work = dict(self.commits[self.head])

    def _ancestors(self, commit: int) -> set[int]:
        seen, todo = set(), [commit]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo.extend(self.parents[current])
        return seen

    def merge(self, other: str, choices: Mapping[str, str] | None = None) -> list[Conflict]:
        """Merge branch ``other`` into the one checked out; returns the record
        conflicts and how ``choices`` settled them. A refused merge raises
        :class:`MergeRefused` and changes nothing."""
        ours, theirs = self.head, self.branches[other]
        common = self._ancestors(ours) & self._ancestors(theirs)
        if not common:
            raise MergeRefused(f"{self.branch!r} and {other!r} share no history")
        # Commits are numbered in order, so the newest common ancestor has no
        # descendant among the others: it is a best merge base.
        base = max(common)
        if base == theirs:
            return []
        if base == ours:  # a fast-forward
            self.branches[self.branch] = theirs
            self.work = dict(self.commits[theirs])
            return []
        heads = (self.commits[base], self.commits[ours], self.commits[theirs])
        state, conflicts = merge_states(*heads, choices or {})
        self._advance((ours, theirs), state)
        return conflicts
