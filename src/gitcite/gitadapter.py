"""Bind the citation model to real Git working trees.

The citation file is ``citation.cite`` (:data:`CITATION_FILE`) at the top
of the worktree, the directory every function here is given as its root
(the command line finds it with :func:`gitcite.cli.find_root`). It is always
written in canonical form. A file of that name below the top is an ordinary
file of the cited tree. Git is driven as a subprocess; the commands used are
listed in the README. The citation file is never merged by Git's own
line-based rules: merges go through :func:`gitcite.ops.merge_citation_files`,
and a branch merge is computed once, by ``git merge-tree``, whose tree is
committed with plumbing (see :func:`run_merge`).
Every change to the citation file is one of the operations in
:mod:`gitcite.ops`; this module only works out from git which of them to
apply. At commit time that is one :func:`gitcite.ops.carry_keys` of every
rename and deletion git reports between HEAD and the index, a file that a
rename overwrote counting as deleted. A merge carries the keys across the
paths git reports deleted from either head the same way; both find the
directories that are gone with :func:`_tree_diff`.

Use one adapter flow per working tree: nothing here locks against
concurrent mutation of the same checkout. Network fetches and local reads
are safe to run concurrently.
"""

from __future__ import annotations

import os
import re
import stat
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    DestinationCollision,
    EditConflict,
    FileMissing,
    HttpStatus,
    InvalidPath,
    IoFailure,
    MalformedDocument,
    MissingMetadata,
    MissingRoot,
    NetworkFailure,
    NoCommonAncestor,
    UnknownVersion,
)
from .fileformat import parse, serialize
from .model import CitationFile, CitationRecord, Segments
from .ops import (
    ConflictReport,
    Resolver,
    apply_copy,
    carry_keys,
    merge_citation_files,
)
from .paths import CanonicalPath, PathKind, Tree

if TYPE_CHECKING:
    import subprocess

CITATION_FILE = "citation.cite"

Rename = tuple[CanonicalPath, CanonicalPath]
TREE = "040000"  # the mode of a directory's entry in git's diff records
BLOBS = ("100644", "100755", "120000")  # a file's or a symlink's; a submodule's is 160000


def citation_file_path(worktree_root: Path | str) -> Path:
    return Path(worktree_root) / CITATION_FILE


def citation_file_text(worktree_root: Path | str) -> str:
    """The worktree's citation file as text; an error names the file when it
    is missing or not UTF-8."""
    path = citation_file_path(worktree_root)
    if not path.is_file():
        raise FileMissing(f"no {CITATION_FILE} at {worktree_root}; run 'gitcite init' there first")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def parse_citation_text(text: str, rev: str | None = None, *, require_root: bool = True) -> CitationFile:
    """Parse the text of the worktree's citation file, or of the one at
    ``rev``. A malformed document's error names the file, and the revision."""
    try:
        return parse(text, require_root)
    except (MalformedDocument, MissingRoot) as exc:
        where = CITATION_FILE if rev is None else f"{CITATION_FILE} at revision {rev!r}"
        raise type(exc)(f"{where}: {exc}") from exc


def load_citation_file(worktree_root: Path | str) -> CitationFile:
    """Parse the worktree's citation file.

    A document that parses but is not in canonical form is accepted as it
    is; ``gitcite validate`` is the command that warns about it.
    """
    return parse_citation_text(citation_file_text(worktree_root))


def store_citation_file(worktree_root: Path | str, cf: CitationFile) -> None:
    """Write exactly the canonical bytes; equal inputs give identical files.

    The bytes go to a new file beside it, which then replaces it with the old
    file's permission bits (``os.replace``). On any error the old file stays
    as it was and the new one is removed.
    """
    data = serialize(cf).encode("utf-8")
    path = citation_file_path(worktree_root)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(temp, "xb") as out:  # exclusive: never writes through a planted link
                out.write(data)
                if path.exists():
                    os.fchmod(out.fileno(), stat.S_IMODE(path.stat().st_mode))
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {CITATION_FILE}: {exc}") from exc


def sync_on_commit(
    worktree_root: Path | str,
    rename_map: Sequence[Rename] = (),
    deleted: Sequence[CanonicalPath] = (),
) -> CitationFile:
    """Carry the on-disk citation file through renames and deletions.

    ``rename_map`` and ``deleted`` come from the version-control system's
    change detection (see :func:`staged_changes`). They are applied all at
    once by :func:`gitcite.ops.carry_keys`: keys follow the renames, keys
    under deleted paths are pruned, and the root entry always survives. The
    new file is stored and returned. A rename onto a key that stays raises
    :class:`~gitcite.errors.InvariantBroken` and leaves the file as it was.
    """
    cf = carry_keys(load_citation_file(worktree_root), rename_map, deleted)
    store_citation_file(worktree_root, cf)
    return cf


def fetch_remote_citation_file(url: str, timeout: float = 10.0) -> CitationFile:
    """GET ``url`` and parse the body as a citation-file document."""
    # Imported here: urllib.request pulls in ssl, http.client and email,
    # which only this command needs.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # an HTTPError holds the response and its socket open
        raise HttpStatus(exc.code, url) from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise NetworkFailure(f"cannot fetch {url}: {exc}") from exc
    return parse(body.decode("utf-8"))


# --- Git plumbing -----------------------------------------------------------


def _git(root: Path | str, *args: str, check: bool = True, input: str | None = None) -> subprocess.CompletedProcess:
    """Run git. Its output is decoded as Python decodes file names: a byte
    that is not UTF-8 becomes a lone surrogate, which encodes back to the
    same byte when the text is handed to git or the file system again.
    ``input`` is encoded the same way. Nothing else is translated, so a
    ``\\r`` in a file name stays one. ``subprocess`` is imported on the
    first call: most commands run no git."""
    import subprocess

    proc = subprocess.run(
        ["git", "-C", str(root), *args],
        capture_output=True,
        input=None if input is None else input.encode("utf-8", "surrogateescape"),
    )
    proc.stdout = proc.stdout.decode("utf-8", "surrogateescape")
    proc.stderr = proc.stderr.decode("utf-8", "surrogateescape")
    if check and proc.returncode != 0:
        raise IoFailure(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc


_ORIGIN_RE = re.compile(r"[:/]([^/:]+)/([^/:]+?)(?:\.git)?/?$")


def _parse_origin(url: str) -> tuple[str | None, str | None]:
    match = _ORIGIN_RE.search(url)
    if not match:
        return None, None
    return match.group(1), match.group(2)


def default_root_citation(top: Path) -> CitationRecord:
    """Draft the root citation of the repository whose worktree is ``top``.

    Owner and repository name come from the origin URL when one is set,
    falling back to ``user.name`` and the worktree directory name; with no
    owner either way it raises :class:`~gitcite.errors.MissingMetadata`. The
    locator is the origin URL or a ``file://`` URL of the worktree. Version
    id and date are the head commit's. The authors are the distinct commit
    authors, oldest first, or the owner alone before the first commit.
    """
    origin = _git(top, "config", "--get", "remote.origin.url", check=False).stdout.strip()
    owner, repo_name = _parse_origin(origin) if origin else (None, None)
    if not owner:
        owner = _git(top, "config", "user.name", check=False).stdout.strip()
    if not owner:
        raise MissingMetadata("owner is required for the default citation: set an origin remote or user.name")
    log = _git(top, "log", "--reverse", "--format=%h%x00%cI%x00%aN", check=False)  # fails with no commit
    commits = [line.split("\0") for line in log.stdout.split("\n") if line] if log.returncode == 0 else []
    head_id, head_date, _ = commits[-1] if commits else ("", "", "")
    return CitationRecord(
        owner=owner,
        repo_name=repo_name or top.name,
        locator=origin or top.resolve().as_uri(),
        version_id=head_id,
        date=head_date,
        author_list=tuple(dict.fromkeys(author for *_, author in commits if author)) or (owner,),
    )


class _PathLookup(Tree):
    """One version's :class:`~gitcite.paths.Tree`, its ``kind_of`` worked out
    one path at a time and memoized. A command that names one path pays for
    that path, not for the size of the tree."""

    def __init__(self) -> None:
        self._kinds: dict[Segments, PathKind | None] = {}

    def kind_of(self, segments: Segments) -> PathKind | None:
        try:
            return self._kinds[segments]
        except KeyError:
            kind = self._kinds[segments] = self._lookup(segments)
            return kind

    def _lookup(self, segments: Segments) -> PathKind | None:
        raise NotImplementedError


class WorktreeLookup(_PathLookup):
    """The working tree, looked up with ``os.lstat`` on a path and its ancestors.

    Git never tracks a path component named ``.git``, so an entry of that
    name is not part of the cited tree, whatever its kind: the repository's
    directory, or the file that points a linked worktree at it. Nor is the
    citation file at the top; one below it is an ordinary file. A symlink to
    a directory is left out, and nothing is found through it; any other
    symlink, broken or not, counts as a file. A path through a file or a
    missing entry has no kind. No git command runs.
    """

    def __init__(self, worktree_root: Path | str) -> None:
        super().__init__()
        self._root = os.fspath(worktree_root)

    def _lookup(self, segments: Segments) -> PathKind | None:
        if not segments:
            return PathKind.DIRECTORY
        if segments[-1] == ".git":
            return None
        for depth in range(1, len(segments)):  # each ancestor must be a real directory
            if self.kind_of(segments[:depth]) is not PathKind.DIRECTORY:
                return None
        full = os.path.join(self._root, *segments)
        try:
            mode = os.lstat(full).st_mode
        except (OSError, ValueError):  # missing, unreadable, or a name no file can have
            return None
        if stat.S_ISDIR(mode):
            return PathKind.DIRECTORY
        if stat.S_ISLNK(mode) and os.path.isdir(full):
            return None
        return None if segments == (CITATION_FILE,) else PathKind.FILE


class RevisionLookup(_PathLookup):
    """The tree committed at ``rev``, one ``git ls-tree <rev> -- <path>`` per path.

    The kind comes from the entry in its parent tree, so the object itself is
    never read: a submodule's commit lives in its own repository, not here.
    A tree is a directory; a blob (symlinks included) or a commit (a
    submodule) is a file. The citation file at the top is left out. A
    revision git cannot resolve to a tree raises
    :class:`~gitcite.errors.UnknownVersion`.
    """

    def __init__(self, root: Path | str, rev: str) -> None:
        super().__init__()
        self._root, self._rev = root, rev

    def _lookup(self, segments: Segments) -> PathKind | None:
        if not segments:
            _require_tree(self._root, self._rev)
            return PathKind.DIRECTORY
        if segments == (CITATION_FILE,):
            return None
        path_text = "/".join(segments)
        proc = _git(
            self._root, "--literal-pathspecs", "ls-tree", "--full-tree", "-z",
            self._rev, "--", path_text, check=False,
        )
        if proc.returncode != 0:
            _require_tree(self._root, self._rev)
            raise IoFailure(f"git ls-tree {self._rev} failed: {proc.stderr.strip()}")
        for entry in proc.stdout.split("\0"):
            meta, _, name = entry.partition("\t")
            if name == path_text:
                return PathKind.DIRECTORY if meta.split()[1] == "tree" else PathKind.FILE
        return None


def _require_tree(root: Path | str, rev: str) -> None:
    """Raise :class:`~gitcite.errors.UnknownVersion` unless git resolves ``rev`` to a tree."""
    if _git(root, "rev-parse", "--verify", "-q", f"{rev}^{{tree}}", check=False).returncode:
        raise UnknownVersion(f"unknown revision {rev!r}")


def citation_file_at_revision(root: Path | str, rev: str) -> CitationFile:
    """The citation file committed at ``rev``. Only when it is missing does
    one more git call tell a revision that is not a tree apart
    (:class:`~gitcite.errors.UnknownVersion`) from a tree without the file
    (:class:`~gitcite.errors.FileMissing`)."""
    try:
        (text,) = _citation_texts_at(root, [rev])
    except FileMissing:
        _require_tree(root, rev)
        raise
    return parse_citation_text(text, rev)


def _citation_texts_at(root: Path | str, revs: Sequence[str]) -> list[str]:
    """The citation file's text at each of ``revs``, read with one ``git
    cat-file --batch``. A revision without the file as a blob (or one that
    does not resolve) raises :class:`~gitcite.errors.FileMissing`; a file
    that is not UTF-8 raises :class:`~gitcite.errors.IoFailure`."""
    for rev in revs:
        if "\n" in rev:  # the query takes one name per line
            raise FileMissing(f"no {CITATION_FILE} at revision {rev!r}")
    query = "".join(f"{rev}:{CITATION_FILE}\n" for rev in revs)
    out = _git(root, "cat-file", "--batch", input=query).stdout.encode("utf-8", "surrogateescape")
    texts, pos = [], 0
    for rev in revs:  # each object is "<id> <type> <size>\n<content>\n", or "<name> missing\n"
        end = out.index(b"\n", pos)
        header = out[pos:end].split(b" ")
        if len(header) != 3 or header[1] != b"blob":
            raise FileMissing(f"no {CITATION_FILE} at revision {rev!r}")
        pos = end + 1 + int(header[2])
        try:  # a citation file must be UTF-8
            texts.append(out[end + 1 : pos].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IoFailure(f"cannot read {CITATION_FILE} at revision {rev!r}: {exc}") from exc
        pos += 1
    return texts


def staged_changes(root: Path | str) -> tuple[list[Rename], list[CanonicalPath]]:
    """Rename and delete lists for the staged state vs HEAD.

    ``git write-tree`` writes the index as the tree ``git commit`` would:
    without intent-to-add entries, and not for an unmerged index, which
    raises :class:`~gitcite.errors.IoFailure`. With no ``HEAD``, or no
    change, nothing is diffed. Renames and deletions come from ``git
    diff-tree -r --raw -B1%/1% -M -z`` of ``HEAD``'s tree and that tree. The
    break option lets any modified file be a rename source, so swapping two
    files (``git mv a.c b.c; git mv c.c a.c``) comes out as the renames
    ``c.c -> a.c`` and ``a.c -> b.c`` instead of ``M a.c``, ``A b.c``, ``D
    c.c``; the README says why these thresholds and where git still misses a
    swap. A directory that :func:`_tree_diff` reports gone counts as
    deleted, as at a merge. So does a file ``HEAD`` had that a rename
    overwrote (``git mv -f a.c b.c``, which git reports as ``R a.c b.c``
    alone) and no rename takes away: its record in that diff is ``M`` or
    ``T`` from a blob's mode. A complete, consistent directory move becomes a
    directory rename, letting directory citation keys follow by prefix (see
    :func:`_infer_directory_moves`; a partially moved directory stays
    file-by-file and a leftover directory key will show up in ``validate``
    output). The inference runs on path segments, so a tracked name that
    cannot be a citation key still counts in it; such a name is then left
    out of both lists, and a rename onto one deletes its source.
    """
    head = _git(root, "rev-parse", "-q", "--verify", "HEAD^{tree}", check=False)
    if head.returncode != 0:
        return [], []
    head_tree, index_tree = head.stdout.strip(), _git(root, "write-tree").stdout.strip()
    if head_tree == index_tree:
        return [], []
    out = _git(root, "diff-tree", "-r", "--raw", "-B1%/1%", "-M", "-z", head_tree, index_tree).stdout
    records = [(status, paths) for status, _, _, paths in _raw_diff(out)]
    renames = [tuple(paths) for status, paths in records if status == "R"]
    deleted = [paths[0] for status, paths in records if status == "D"]
    trees = list(_tree_diff(root, [(head_tree, index_tree)])) if renames or deleted else []
    moved_in = {new for _, new in renames}.difference(old for old, _ in renames)
    deleted += [path for status, mode, _, (path,) in trees if status in "MT" and mode in BLOBS and path in moved_in]
    gone = {path for status, mode, _, (path,) in trees if status == "D" and mode == TREE}  # directories HEAD had
    new_dirs = {path for status, _, mode, (path,) in trees if status == "A" and mode == TREE}  # and HEAD had not
    dir_moves = _infer_directory_moves(root, index_tree, records, gone, new_dirs)
    key_renames: list[Rename] = []
    key_deleted = [key for path in deleted if (key := _key(path, PathKind.FILE))]
    for kind, moves in ((PathKind.DIRECTORY, dir_moves), (PathKind.FILE, renames)):
        for old, new in moves:
            old_key, new_key = _key(old, kind), _key(new, kind)
            if old_key and new_key:
                key_renames.append((old_key, new_key))
            elif old_key:  # moved to a name no key can have
                key_deleted.append(old_key)
    key_deleted += sorted(key for path in gone if (key := _key(path, PathKind.DIRECTORY)))
    return key_renames, key_deleted


def _tree_diff(root: Path | str, pairs: Sequence[tuple[str, str]]) -> Iterator[tuple[str, str, str, list[Segments]]]:
    """The records of one ``git diff-tree --stdin -r -t --no-renames`` of
    each pair of trees. ``-t`` gives a directory a record of its own: one is
    gone when its record is ``D`` from the mode ``TREE``. Renames stay off:
    with ``-t`` directories join the rename candidates, and of two equally
    similar sources git may then pick another than ``git diff -M`` does."""
    query = "".join(f"{old} {new}\n" for old, new in pairs)
    return _raw_diff(_git(root, "diff-tree", "--stdin", "-r", "-t", "--no-renames", "--raw", "-z", input=query).stdout)


def _raw_diff(out: str) -> Iterator[tuple[str, str, str, list[Segments]]]:
    """Each record of git's ``--raw -z`` diff output: its status letter, its
    old and new modes (``TREE`` for a directory, ``000000`` for no entry)
    and its paths as segments, two for a rename or copy. ``diff-tree
    --stdin`` writes a ``<tree> <tree>`` line per pair, even an equal one,
    glued to the next record's metadata, which holds no newline; such lines
    are skipped."""
    tokens = iter(out.split("\0"))
    for token in tokens:
        meta = token.rpartition("\n")[2]
        if not meta:  # a trailing pair line, or the end
            continue
        old_mode, new_mode, _, _, status = meta[1:].split(" ")
        yield status[0], old_mode, new_mode, [tuple(next(tokens).split("/")) for _ in range(1 + (status[0] in "RC"))]


def _key(segments: Segments, kind: PathKind) -> CanonicalPath | None:
    """``segments`` as a citation key, or None for a name no key can have, such as ``we\\ird.c``."""
    try:
        return CanonicalPath(segments, kind)
    except InvalidPath:
        return None


def _infer_directory_moves(
    root: Path | str,
    index_tree: str,
    records: Sequence[tuple[str, list[Segments]]],
    gone: set[Segments],
    new_dirs: set[Segments],
) -> list[tuple[Segments, Segments]]:
    """Directory moves implied by the renames among the diff ``records``, in first-seen order.

    Each rename nominates the directory pair left once the longest common
    run of trailing names is cut from both ends. ``old_dir -> new_dir`` is a
    move when ``old_dir`` is ``gone`` with no file deleted under it, every
    rename out of ``old_dir`` lands at its rebased path under ``new_dir``,
    and every staged file under ``new_dir`` is one of those renames or a new
    file. A ``new_dir`` that already held files is a merge of two
    directories, and stays file-by-file. Every staged file under a directory
    of ``new_dirs`` has a record; those under a destination ``HEAD`` had are
    counted by one ``ls-tree`` of the index's tree.
    """
    renames = [tuple(paths) for status, paths in records if status == "R"]
    moved_out = _count_dirs(old for old, _ in renames)
    deleted = _count_dirs(paths[0] for status, paths in records if status == "D")
    added = _count_dirs(paths[0] for status, paths in records if status == "A")
    arrived = _count_dirs(paths[-1] for status, paths in records if status in "ACR")  # the records' new paths
    agreeing: Counter = Counter()  # renames consistent with each (old_dir, new_dir) pair
    candidates: dict[tuple[Segments, Segments], None] = {}
    for o, n in renames:
        k = 0
        limit = min(len(o), len(n)) - 1
        while k < limit and o[-(k + 1)] == n[-(k + 1)]:
            k += 1
            agreeing[o[:-k], n[:-k]] += 1
        if k:
            candidates.setdefault((o[:-k], n[:-k]))
    moves = [(o, n) for o, n in candidates if o in gone and not deleted[o] and agreeing[o, n] == moved_out[o]]
    listed = sorted({"/".join(n) for _, n in moves if n not in new_dirs})  # destinations HEAD had
    ls_tree = ("--literal-pathspecs", "ls-tree", "-r", "-z", "--name-only", "--full-tree", index_tree, "--", *listed)
    out = _git(root, *ls_tree).stdout if listed else ""
    held = _count_dirs(tuple(f.split("/")) for f in out.split("\0") if f)  # the staged files under each of them
    return [(o, n) for o, n in moves if agreeing[o, n] + added[n] == (arrived if n in new_dirs else held)[n]]


def _count_dirs(files: Iterable[tuple[str, ...]]) -> Counter:
    """How many of ``files`` (given as segments) lie below each non-root directory."""
    return Counter(f[:i] for f in files for i in range(1, len(f)))


# --- Higher-level worktree operations (used by the CLI) ---------------------


def run_merge(
    root: Path | str, other: str, resolver: Resolver | None
) -> tuple[CitationFile, list[ConflictReport]]:
    """Citation-aware branch merge in a real worktree, merging once.

    ``git merge-tree --write-tree`` merges ``HEAD`` and ``other`` in the
    object store only. If it reports a conflict in any path but the citation
    file (content, modify/delete, add/add, ...),
    :class:`~gitcite.errors.EditConflict` names the paths and nothing is
    written. Otherwise the citation file is rebuilt from the base/ours/theirs
    documents by :func:`gitcite.ops.merge_citation_files` instead of being
    text-merged, and :func:`gitcite.ops.carry_keys` drops the keys of the
    paths ``git diff-tree`` reports deleted from either head, as at a commit;
    a key whose path neither head has stays, for ``validate`` to report. Its
    canonical bytes replace the citation entry of the merged tree, ``git
    commit-tree`` commits that tree with both parents (signed when
    ``commit.gpgSign`` is set; no commit hook runs), and ``git merge
    --ff-only`` moves ``HEAD``, the index and the worktree to it in one step.
    A citation file that differs from ``HEAD``'s, whose edit the rebuild would
    lose, raises :class:`~gitcite.errors.IoFailure` and touches nothing, as
    does the fast-forward when git refuses it (a local edit, a staged change
    on a merged path or an untracked file in the way). With
    ``merge.verifySignatures`` set, ``other`` must carry a good signature
    trusted as ``git merge`` requires (``gpg.minTrustLevel``, else marginal),
    checked before anything is written. Everything before the fast-forward
    writes only unreferenced objects, so a resolver that gives up or a failed
    step leaves no pending merge behind.
    """
    root = Path(root)
    if "\n" in other:  # the query takes one name per line
        raise UnknownVersion(f"unknown revision {other!r}")
    query = "".join(f"{rev}^{{{kind}}}\n" for rev in ("HEAD", other) for kind in ("commit", "tree"))
    heads = _git(root, "cat-file", "--batch-check=%(objectname)", input=query).stdout.split("\n")
    head_rev, head_tree, other_rev, other_tree = heads[:4]  # an id, or "<name> missing"
    if " " in other_rev:
        raise UnknownVersion(f"unknown revision {other!r}")
    if " " in head_rev:
        raise IoFailure("HEAD has no commit to merge into")
    base_proc = _git(root, "merge-base", head_rev, other_rev, check=False)
    if base_proc.returncode != 0:
        raise NoCommonAncestor(f"HEAD and {other!r} share no history")
    base_rev = base_proc.stdout.strip()
    if base_rev == other_rev:
        return load_citation_file(root), []  # nothing to merge
    if base_rev == head_rev:
        _git(root, "merge", "--ff-only", "-q", other_rev)
        return load_citation_file(root), []
    settings = dict(  # each of these keys that is set, with its value
        line.partition(" ")[::2]
        for line in _git(
            root, "config", "--type=bool-or-str", "--get-regexp",
            r"^(commit\.gpgsign|merge\.verifysignatures|gpg\.mintrustlevel)$", check=False,
        ).stdout.split("\n")
        if line
    )
    if settings.get("merge.verifysignatures") == "true":  # as git merge checks the merged head
        trust = [] if "gpg.mintrustlevel" in settings else ["-c", "gpg.minTrustLevel=marginal"]
        verify = _git(root, *trust, "verify-commit", other_rev, check=False)
        if verify.returncode != 0:
            raise IoFailure(f"merge.verifySignatures: {other} has no good, trusted signature: {verify.stderr.strip()}")

    trial = _git(  # prints the merged tree's id, then each conflicted path; exits 1 on a conflict
        root, "merge-tree", "--write-tree", "--name-only", "--no-messages", "-z", head_rev, other_rev, check=False
    )
    if trial.returncode not in (0, 1):
        raise IoFailure(f"git merge-tree failed: {trial.stderr.strip()}")
    merged_tree, *conflicted = trial.stdout.split("\0")
    conflicted = [p for p in conflicted if p and p != CITATION_FILE]
    if conflicted:
        raise EditConflict(f"merge refused: both branches changed {', '.join(conflicted)}")
    base_text, left_text, right_text = _citation_texts_at(root, [base_rev, head_rev, other_rev])
    base_cf, left_cf, right_cf = (
        parse_citation_text(text, rev)
        for text, rev in zip((base_text, left_text, right_text), (base_rev, "HEAD", other))
    )
    worktree_text = citation_file_text(root)
    if worktree_text != left_text and parse_citation_text(worktree_text) != left_cf:
        raise IoFailure(f"{citation_file_path(root)} has uncommitted changes; commit or discard them first")

    top_entries, mode = [], "100644"
    for entry in filter(None, _git(root, "ls-tree", "-z", merged_tree).stdout.split("\0")):
        if entry.partition("\t")[2] == CITATION_FILE:  # the text-merged citation file, replaced below
            mode = "100755" if entry.startswith("100755 ") else mode
        else:
            top_entries.append(entry)
    deleted = [
        key
        for status, old_mode, _, (path,) in _tree_diff(root, [(head_tree, merged_tree), (other_tree, merged_tree)])
        if status == "D" and (key := _key(path, PathKind.DIRECTORY if old_mode == TREE else PathKind.FILE))
    ]
    merged_cf, conflicts = merge_citation_files(base_cf, left_cf, right_cf, resolver)
    merged_cf = carry_keys(merged_cf, (), deleted)

    blob = _git(root, "hash-object", "-w", "--stdin", input=serialize(merged_cf)).stdout.strip()
    top_entries.append(f"{mode} blob {blob}\t{CITATION_FILE}")
    tree = _git(root, "mktree", "-z", input="".join(f"{e}\0" for e in top_entries)).stdout.strip()
    sign = ["-S"] if settings.get("commit.gpgsign") == "true" else []
    commit = _git(
        root, "commit-tree", tree, "-p", head_rev, "-p", other_rev, "-m", f"Merge {other}", *sign
    ).stdout.strip()
    advance = _git(root, "merge", "--ff-only", "-q", "--no-verify-signatures", commit, check=False)
    if advance.returncode != 0:
        raise IoFailure(f"git merge {other} refused: {advance.stderr.strip()}")
    return merged_cf, conflicts


def run_copy(
    root: Path | str,
    src_root: Path | str,
    src_subtree: CanonicalPath,
    dst_path: CanonicalPath,
) -> tuple[CitationFile, list[CanonicalPath]]:
    """Copy a directory from another checkout and migrate its citations.

    The citations migrate by :func:`gitcite.ops.apply_copy`, whose checks
    run before any file is copied on disk. Symlinks are copied as links, as
    git carries them. Every entry named ``.git`` and the source top's
    citation file stay behind; a ``citation.cite`` below the top is an
    ordinary cited file and is copied. If the copy or the citation write
    fails, the copied directory is removed. Returns the new citation file and
    the added keys.
    """
    import shutil  # only copy walks a tree

    root, src_root = Path(root), Path(src_root)
    merged, added = apply_copy(
        load_citation_file(root),
        WorktreeLookup(root),
        load_citation_file(src_root),
        WorktreeLookup(src_root),
        src_subtree,
        dst_path,
    )
    dst_fs = root / Path(*dst_path.segments)
    if os.path.lexists(dst_fs):  # such as a directory symlink, which the cited tree leaves out
        raise DestinationCollision(f"{dst_path} already exists")
    src_fs = src_root.joinpath(*src_subtree.segments)

    def ignore(directory: str, names: list[str]) -> set[str]:
        ignored = {".git", CITATION_FILE} if Path(directory) == src_root else {".git"}
        return ignored.intersection(names)

    try:
        shutil.copytree(src_fs, dst_fs, symlinks=True, ignore=ignore)
        store_citation_file(root, merged)
    except BaseException:
        shutil.rmtree(dst_fs, ignore_errors=True)  # nothing was there before the copy
        raise
    return merged, added
