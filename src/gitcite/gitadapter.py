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
rename and deletion between HEAD's tree and the index's (see
:func:`_tree_changes`), a file that a rename overwrote counting as deleted.
A merge carries the keys across the paths git reports deleted from either
head the same way; both find the directories that are gone with
:func:`_tree_diff`. A copy fetches its source's ``HEAD`` and reads it in with ``git read-tree``.

Every change to the worktree's citation file holds the writer lock
(:class:`_WriterLock`); reads take none. Every version of the file a command
writes, here or as a merge's blob, is made by :func:`encode_citation_file`,
and every one it reads, in the worktree, at a revision or at a URL, by
:func:`decode_citation_file`, so each file written reads back.
"""

from __future__ import annotations

import errno
import os
import stat
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import GitCiteError, InvalidPath, IoFailure
from .fileformat import parse, serialize
from .model import TEXT_FIELDS, CitationFile, CitationRecord, Segments
from .ops import (
    ConflictReport,
    Resolver,
    apply_copy,
    carry_keys,
    merge_citation_files,
)
from .paths import CanonicalPath, PathKind, Tree

CITATION_FILE = "citation.cite"

Rename = tuple[CanonicalPath, CanonicalPath]
DiffRecord = tuple[str, str, str, str, str, list[Segments]]  # see _raw_diff
TREE = "040000"  # the mode of a directory's entry in git's diff records
BLOBS = ("100644", "100755", "120000")  # a file's or a symlink's; a submodule's is 160000


def citation_file_path(worktree_root: str) -> str:
    return os.path.join(worktree_root, CITATION_FILE)


def citation_file_exists(worktree_root: str) -> bool:
    """Whether the worktree has its citation file. Anything else of that name
    at the top, a symlink, a directory or a FIFO, raises
    :class:`~gitcite.errors.IoFailure`: no command reads or replaces it."""
    path = citation_file_path(worktree_root)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return False
    if not stat.S_ISREG(mode):
        raise IoFailure(f"{path} is not a regular file")
    return True


def citation_file_bytes(worktree_root: str) -> bytes:
    """The worktree's citation file's bytes; an error names the file."""
    if not citation_file_exists(worktree_root):
        raise IoFailure(f"no {CITATION_FILE} at {worktree_root}; run 'gitcite init' there first")
    with open(citation_file_path(worktree_root), "rb") as file:
        return file.read()


def encode_citation_file(cf: CitationFile) -> bytes:
    """The one encoder of the citation file: :func:`~gitcite.fileformat.serialize`,
    then strict UTF-8, so equal inputs give identical bytes. A key that is not
    UTF-8, as git's names may be, raises :class:`~gitcite.errors.InvalidPath`,
    and a field holding a lone surrogate (as a byte the command line could not
    decode does) a ``ValueError`` that names the key and the field."""
    try:
        return serialize(cf).encode("utf-8")
    except UnicodeEncodeError:
        for key, entry in cf.items():
            texts = [(None, key.render()), *((name, getattr(entry, name)) for name in TEXT_FIELDS)]
            texts += [("author_list", "".join(entry.author_list)), *((n, n + v) for n, v in entry.extras.items())]
            for name, text in texts:  # an extras entry's text holds its name too
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    if name is None:
                        raise InvalidPath(f"{key} cannot be cited: its name is not UTF-8") from None
                    raise ValueError(f"{key}: field '{name}' is not UTF-8") from None
        raise


def decode_citation_file(data: bytes, where: str, require_root: bool = True) -> CitationFile:
    """The one decoder of the citation file: ``data`` as strict UTF-8, parsed
    by :func:`~gitcite.fileformat.parse`. An error names the file as
    ``where``: :class:`~gitcite.errors.IoFailure` for bytes that are not
    UTF-8, else a :class:`~gitcite.errors.GitCiteError`, raised too for a
    ``\\u`` escape :func:`encode_citation_file` cannot write back."""
    try:
        cf = parse(data.decode("utf-8"), require_root)
        if b"\\u" in data:  # only an escape holds a lone surrogate
            encode_citation_file(cf)
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {where}: {exc}") from exc
    except (GitCiteError, ValueError) as exc:
        raise GitCiteError(f"{where}: {exc}") from exc
    return cf


def load_citation_file(worktree_root: str) -> CitationFile:
    """The worktree's citation file, accepted as it is when it parses but is
    not in canonical form; ``gitcite validate`` is the command that warns."""
    return decode_citation_file(citation_file_bytes(worktree_root), citation_file_path(worktree_root))


def create_citation_file(worktree_root: str, cf: CitationFile) -> bytes:
    """Write ``cf`` as the worktree's new citation file through the writer
    lock (see :meth:`_WriterLock.commit`) and return its bytes. A citation
    file found once the lock is held, another ``gitcite init``'s say, raises
    :class:`~gitcite.errors.GitCiteError` and stays as it is. Only ``init``
    calls it; every edit is one :func:`update_citation_file`."""
    with _WriterLock(worktree_root) as lock:
        if citation_file_exists(worktree_root):
            raise GitCiteError(f"{citation_file_path(worktree_root)} already exists")
        return lock.commit(cf)


class _WriterLock:
    """``citation.cite.lock`` beside the citation file, held by one writer
    from its read to its write, and the file its new bytes go into, as git's
    ``index.lock`` is. It is created exclusively, mode 0o666 less the umask.
    One that already exists raises :class:`~gitcite.errors.IoFailure` before
    anything is read: another command is writing, or one was killed
    mid-write, and only the user can tell which, so a stale lock is reported
    and never broken. On exit the lock is removed unless :meth:`commit`
    renamed it over the citation file."""

    def __init__(self, worktree_root: str) -> None:
        self.target = citation_file_path(worktree_root)
        self.path = self.target + ".lock"
        self.committed = False  # after the rename the name may be another writer's lock

    def __enter__(self) -> _WriterLock:
        try:
            self.file = open(self.path, "xb")
        except FileExistsError:
            raise IoFailure(
                f"{self.path} exists: another gitcite command is writing {CITATION_FILE}; "
                "if none is running, remove the lock file"
            ) from None
        return self

    def commit(self, cf: CitationFile) -> bytes:
        """Write the bytes :func:`encode_citation_file` makes of ``cf`` into the lock,
        give it the old file's permission bits, rename it over the citation file
        (``os.replace``) and return the bytes. On any error the old file stays."""
        data = encode_citation_file(cf)
        try:
            with self.file as out:
                out.write(data)
                if os.path.exists(self.target):
                    os.fchmod(out.fileno(), stat.S_IMODE(os.stat(self.target).st_mode))
            os.replace(self.path, self.target)
        except OSError as exc:
            raise IoFailure(f"cannot write {CITATION_FILE}: {exc}") from exc
        self.committed = True
        return data

    def __exit__(self, *exc_info: object) -> None:
        self.file.close()
        if not self.committed:
            os.unlink(self.path)


def update_citation_file(worktree_root: str, change: Callable[[CitationFile], CitationFile]) -> CitationFile:
    """The one read-edit-write of the worktree's citation file: parse it,
    apply ``change`` and store the result, holding the writer lock
    throughout. A result equal to the file read writes nothing, so the file
    keeps its inode and its bytes, a hand edit's included. An error, in
    ``change`` too, leaves the file as it was. Returns the new file."""
    with _WriterLock(worktree_root) as lock:
        old = load_citation_file(worktree_root)
        new = change(old)
        if new != old:
            lock.commit(new)
    return new


def sync_on_commit(
    worktree_root: str, rename_map: Sequence[Rename] = (), deleted: Sequence[CanonicalPath] = ()
) -> CitationFile:
    """Carry the on-disk citation file through renames and deletions.

    ``rename_map`` and ``deleted`` come from the version-control system's
    change detection (see :func:`staged_changes`). They are applied all at
    once by :func:`gitcite.ops.carry_keys`: keys follow the renames, keys
    under deleted paths are pruned, and the root entry always survives. The
    new file is returned, and stored by :func:`update_citation_file` when it
    differs from the old one. A rename onto a key that stays raises a
    :class:`~gitcite.errors.GitCiteError` and leaves the file as it was.
    """
    return update_citation_file(worktree_root, lambda cf: carry_keys(cf, rename_map, deleted))


def fetch_remote_citation_file(url: str) -> CitationFile:
    """GET ``url``, waiting 10 s at most, and parse the body as a citation file; an error names ``url``."""
    # Imported here: urllib.request pulls in ssl, http.client and email,
    # which only this command needs.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # an HTTPError holds the response and its socket open
        raise IoFailure(f"HTTP {exc.code} for {url}") from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise IoFailure(f"cannot fetch {url}: {exc}") from exc
    return decode_citation_file(body, url)


# --- Git plumbing -----------------------------------------------------------


# The git commands whose exit 1 is an answer: no such setting, no merge base, a conflict, a bad signature.
_ANSWERS_ON_1 = frozenset({"config", "merge-base", "merge-tree", "verify-commit"})


def _git(root: str, *args: str, input: str | bytes | None = None, failure: str = ""):
    """Run git and return its ``subprocess.CompletedProcess``; the one place
    that reads git's exit code. Exit 0 returns, and so does exit 1 of a
    command in :data:`_ANSWERS_ON_1`, whose caller reads it as an answer. Any other
    exit, git's fatal 128 above all, raises :class:`~gitcite.errors.IoFailure`
    with ``failure`` (by default ``git <args> failed``) and git's first stderr
    line, with the tab-indented paths under it but not the advice after. The
    command is the first argument past git's own options (``-c`` takes a
    ``name=value``). Output is decoded as Python decodes file names: a byte
    that is not UTF-8 becomes a lone surrogate, which encodes back to the same
    byte when handed to git or the file system again. A text ``input`` is
    encoded the same way, and a ``\\r`` in a file name stays one; a bytes
    ``input`` goes to git as it is. ``subprocess`` is imported on the first
    call: most commands run no git."""
    import subprocess

    if isinstance(input, str):
        input = input.encode("utf-8", "surrogateescape")
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, input=input)
    proc.stdout = proc.stdout.decode("utf-8", "surrogateescape")
    proc.stderr = proc.stderr.decode("utf-8", "surrogateescape")
    command = next(word for word in args if word[:1] != "-" and "=" not in word)
    if proc.returncode and (proc.returncode != 1 or command not in _ANSWERS_ON_1):
        import re  # only a failure reads git's stderr

        message = re.match(r".*(?:\n\t.*)*", proc.stderr.strip()).group()
        raise IoFailure(f"{failure or 'git ' + ' '.join(args) + ' failed'}: {message}")
    return proc


def default_root_citation(top: str) -> CitationRecord:
    """Draft the root citation of the repository whose worktree is ``top``.

    Owner and repository name come from the origin URL when one is set,
    falling back to ``user.name`` and the worktree directory name; with no
    owner either way it raises :class:`~gitcite.errors.GitCiteError`. The
    locator is the origin URL or a ``file://`` URL of the worktree. Version
    id and date are the head commit's. The authors are the distinct commit
    authors, oldest first, or the owner alone before the first commit.
    """
    import re  # only gitcite init drafts a citation

    origin = _git(top, "config", "--get", "remote.origin.url").stdout.strip()
    match = re.search(r"[:/]([^/:]+)/([^/:]+?)(?:\.git)?/?$", origin)  # .../<owner>/<name>[.git]
    owner, repo_name = match.groups() if match else (None, None)
    if not owner:
        owner = _git(top, "config", "user.name").stdout.strip()
    if not owner:
        raise GitCiteError("owner is required for the default citation: set an origin remote or user.name")
    log = _git(top, "log", "--ignore-missing", "--reverse", "--format=%h%x00%cI%x00%aN", "HEAD")  # empty with no commit
    commits = [line.split("\0") for line in log.stdout.split("\n") if line]
    head_id, head_date, _ = commits[-1] if commits else ("", "", "")
    if not origin:
        from pathlib import Path  # only the file:// locator needs it, and only here

        origin = Path(top).resolve().as_uri()
    return CitationRecord(
        owner=owner,
        repo_name=repo_name or os.path.basename(top),
        locator=origin,
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
    citation file at the top; one below it is an ordinary file. A regular
    file is a file, and so is a symlink, broken or not, unless it points to a
    directory: that one is left out, and nothing is found through it. A
    FIFO, socket or device is left out too, as ``git add`` skips it. A path
    through a file, a missing entry or a name too long for the file system
    has no kind; any other failure of ``os.lstat``, such as a directory it
    may not search, raises. No git command runs.
    """

    def __init__(self, worktree_root: str) -> None:
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
        except (FileNotFoundError, NotADirectoryError, ValueError):  # missing, or a NUL no name can hold
            return None
        except OSError as exc:  # a name too long is missing too; any other failure is the environment's
            if exc.errno != errno.ENAMETOOLONG:
                raise
            return None
        if stat.S_ISDIR(mode):
            return PathKind.DIRECTORY
        if stat.S_ISREG(mode) or stat.S_ISLNK(mode) and not os.path.isdir(full):
            return None if segments == (CITATION_FILE,) else PathKind.FILE
        return None  # a FIFO, socket or device, which git does not carry, or a link to a directory


class RevisionLookup(_PathLookup):
    """The tree committed at ``rev``, read with its citation file by one
    :func:`_objects` call (a ``rev`` that is no tree raises
    :class:`~gitcite.errors.GitCiteError`) and kept as ``tree``, then one more
    per path below the top, of its parent directory (:func:`_tree_name`) in
    that tree, so a ref that moves meanwhile changes nothing.

    The kind comes from the entry in its parent tree, so the object itself is
    never read: a submodule's commit lives in its own repository, not here.
    Mode ``40000`` is a directory; any other (a file, a symlink, a
    submodule) is a file. A parent that is missing or no tree, as one through
    a file or a submodule is, holds nothing. The citation file at the top is
    left out.
    """

    def __init__(self, root: str, rev: str) -> None:
        super().__init__()
        self.tree, self._blob = _objects(root, [f"{rev}^{{tree}}", f"{rev}^{{tree}}:{CITATION_FILE}"])
        if self.tree is None:
            raise GitCiteError(f"unknown revision {rev!r}")
        self._root, self._rev = root, rev

    def citation_file(self, where: str = "") -> CitationFile:
        """The citation file in this tree, an :class:`~gitcite.errors.IoFailure` if none; an
        error names it as ``where``, by default ``revision '<rev>'``."""
        where = where or f"revision {self._rev!r}"
        return decode_citation_file(_citation_blob(self._blob, where), f"{CITATION_FILE} at {where}")

    def _lookup(self, segments: Segments) -> PathKind | None:
        if not segments:
            return PathKind.DIRECTORY
        if segments == (CITATION_FILE,) or "\0" in "".join(segments):  # no git path holds a NUL
            return None
        (parent,) = _objects(self._root, [_tree_name(self.tree[0], segments[:-1])]) if segments[:-1] else [self.tree]
        if parent is None or parent[1] != "tree":
            return None
        leaf = segments[-1].encode("utf-8", "surrogateescape")
        mode = next((mode for mode, name, _ in _tree_entries(parent[2], len(parent[0]) // 2) if name == leaf), None)
        return None if mode is None else PathKind.DIRECTORY if mode == b"40000" else PathKind.FILE


def _tree_entries(data: bytes, id_size: int) -> Iterator[tuple[bytes, bytes, slice]]:
    """The one parser of a tree object's content: each entry's mode, name and
    byte span. An entry is ``<mode> <name>\\0<id>``, the id ``id_size`` bytes of
    binary, half as many as its hex digits: 20 for SHA-1, 32 for SHA-256."""
    start = 0
    while start < len(data):
        space = data.index(b" ", start)
        nul = data.index(b"\0", space)
        yield data[start:space], data[space + 1 : nul], slice(start, nul + 1 + id_size)
        start = nul + 1 + id_size


def _tree_name(tree: str, segments: Segments) -> str:
    """The object name of the directory ``segments`` in ``tree``: ``<tree>:``
    for the top, else ``<tree>:<path>/``. An object name is never read as a
    pathspec, and the ``/`` keeps git from reading a name such as
    ``v-g1a2b3c4`` as ``git describe`` output naming another object."""
    return f"{tree}:" + "".join(f"{segment}/" for segment in segments)


def _objects(root: str, names: Sequence[str]) -> list[tuple[str, str, bytes] | None]:
    """The one reader of git's objects: each of ``names`` as its id, type and
    content, by one ``git cat-file --batch -z`` reading them on stdin (never
    as options) with a NUL after each, so a name may hold a newline; None if
    git resolves none or, unasked, it holds a NUL, which ends a name."""
    query = "".join(f"{name}\0" for name in names if "\0" not in name)
    out = _git(root, "cat-file", "--batch", "-z", input=query).stdout.encode("utf-8", "surrogateescape") if query else b""
    objects, pos = [], 0
    for name in names:  # each object is "<id> <type> <size>\n<content>\n", else "<name> missing\n"
        obj = None
        if "\0" not in name:
            echo = name.encode("utf-8", "surrogateescape") + b" "  # the name may hold a newline
            answer = next((a for a in (b"missing\n", b"ambiguous\n") if out.startswith(echo + a, pos)), None)
            if answer:
                pos += len(echo) + len(answer)
            else:
                end = out.index(b"\n", pos)
                (oid, kind, size), pos = out[pos:end].split(b" "), end + 1
                obj, pos = (oid.decode(), kind.decode(), out[pos : pos + int(size)]), pos + int(size) + 1
        objects.append(obj)
    return objects


def _citation_blob(obj: tuple[str, str, bytes] | None, where: str) -> bytes:
    """``obj``'s content; :class:`~gitcite.errors.IoFailure` naming ``where`` if it is no blob."""
    if obj is None or obj[1] != "blob":
        raise IoFailure(f"no {CITATION_FILE} at {where}")
    return obj[2]


def staged_changes(root: str) -> tuple[list[Rename], list[CanonicalPath]]:
    """Rename and delete lists for the staged state vs HEAD: :func:`_tree_changes`
    of ``HEAD``'s tree and the index's, which ``git write-tree`` writes as ``git
    commit`` would, without intent-to-add entries; an unmerged index raises
    :class:`~gitcite.errors.IoFailure`. With no ``HEAD`` or no change, nothing is diffed."""
    (head,) = _objects(root, ["HEAD^{tree}"])
    if head is None:
        return [], []
    head_tree, index_tree = head[0], _git(root, "write-tree").stdout.strip()
    if head_tree == index_tree:
        return [], []
    return _tree_changes(root, head_tree, index_tree)


def _tree_changes(root: str, old_tree: str, new_tree: str) -> tuple[list[Rename], list[CanonicalPath]]:
    """The key renames and deletions that carry ``old_tree``'s citations to
    ``new_tree``, read from ``git diff-tree -r --raw -B1%/1% -M -z``. The
    break option lets any modified file be a rename source, so swapping two
    files (``git mv a.c b.c; git mv c.c a.c``) comes out as the renames ``c.c
    -> a.c`` and ``a.c -> b.c`` instead of ``M a.c``, ``A b.c``, ``D c.c``;
    the README says why these thresholds. The file moves git leaves unpaired,
    as it does for files under 400 bytes, come from :func:`_same_blob_moves`.
    A directory that :func:`_tree_diff` reports gone counts as deleted, as at
    a merge. So does a file ``old_tree`` had that a rename overwrote (``git
    mv -f a.c b.c``, which git reports as ``R a.c b.c`` alone) and no rename
    takes away: its record in that diff is ``M`` or ``T`` from a blob's mode.
    A complete, consistent directory move becomes a directory rename, letting
    directory citation keys follow by prefix (see
    :func:`_infer_directory_moves`, which reads git's renames only; a
    partially moved directory stays file-by-file and a leftover directory key
    will show up in ``validate`` output). The inference runs on path
    segments, so a tracked name that cannot be a citation key still counts in
    it; such a name is then left out of both lists, and a rename onto one
    deletes its source."""
    out = _git(root, "diff-tree", "-r", "--raw", "-B1%/1%", "-M", "-z", old_tree, new_tree).stdout
    diff = list(_raw_diff(out))
    records = [(status, paths) for status, *_, paths in diff]
    renames = [tuple(paths) for status, paths in records if status == "R"]
    moves = renames + _same_blob_moves(diff)
    moved_out = {old for old, _ in moves}
    deleted = [paths[0] for status, paths in records if status == "D" and paths[0] not in moved_out]
    trees = list(_tree_diff(root, [(old_tree, new_tree)])) if moves or deleted else []
    moved_in = {new for _, new in moves} - moved_out
    deleted += [path for status, mode, *_, (path,) in trees if status in "MT" and mode in BLOBS and path in moved_in]
    gone = {path for status, mode, *_, (path,) in trees if status == "D" and mode == TREE}  # directories old_tree had
    new_dirs = {path for status, _, mode, *_, (path,) in trees if status == "A" and mode == TREE}  # and it had not
    dir_moves = _infer_directory_moves(root, new_tree, renames, records, gone, new_dirs)
    key_renames: list[Rename] = []
    key_deleted = [key for path in deleted if (key := _key(path, PathKind.FILE))]
    for kind, pairs in ((PathKind.DIRECTORY, dir_moves), (PathKind.FILE, moves)):
        for old, new in pairs:
            old_key, new_key = _key(old, kind), _key(new, kind)
            if old_key and new_key:
                key_renames.append((old_key, new_key))
            elif old_key:  # moved to a name no key can have
                key_deleted.append(old_key)
    key_deleted += sorted(key for path in gone if (key := _key(path, PathKind.DIRECTORY)))
    return key_renames, key_deleted


def _same_blob_moves(records: Sequence[DiffRecord]) -> list[tuple[Segments, Segments]]:
    """The file moves git left unpaired among the diff ``records``, matched
    by exact blob id. Git never breaks a file under 400 bytes, so an
    overwrite of one (``git mv -f a.c b.c``) reads ``D a.c``, ``M b.c``, and
    a swap ``M a.c``, ``A b.c``, ``D c.c``. A deleted file moves to the added
    or modified file whose new id is its old one. A modified file is a source
    only when its old id is the new id of exactly one other record and its
    new id the old id of exactly one other, as in a swap or a rotation; a
    file copied and then edited keeps its path. An id that more than one
    source or more than one destination holds pairs nothing. Git's own ``R``
    and ``C`` records are not paired again, nor is a record whose id stayed
    (a mode change)."""
    changed = [
        (status, old, new, paths[0]) for status, _, _, old, new, paths in records if status in "ADM" and old != new
    ]
    before = Counter(old for status, old, _, _ in changed if status != "A")  # the changed paths' old ids
    after = Counter(new for status, _, new, _ in changed if status != "D")  # and their new ones
    taker = {new: path for status, _, new, path in changed if status != "D"}
    sources = [
        (old, path) for status, old, new, path in changed
        if status == "D" or status == "M" and after[old] == before[new] == 1
    ]
    given = Counter(old for old, _ in sources)
    return [(path, taker[old]) for old, path in sources if given[old] == after[old] == 1]


def _tree_diff(root: str, pairs: Sequence[tuple[str, str]]) -> Iterator[DiffRecord]:
    """The records of one ``git diff-tree --stdin -r -t --no-renames`` of
    each pair of trees. ``-t`` gives a directory a record of its own: one is
    gone when its record is ``D`` from the mode ``TREE``. Renames stay off:
    with ``-t`` directories join the rename candidates, and of two equally
    similar sources git may then pick another than ``git diff -M`` does."""
    query = "".join(f"{old} {new}\n" for old, new in pairs)
    return _raw_diff(_git(root, "diff-tree", "--stdin", "-r", "-t", "--no-renames", "--raw", "-z", input=query).stdout)


def _raw_diff(out: str) -> Iterator[DiffRecord]:
    """Each record of git's ``--raw -z`` diff output: its status letter, its
    old and new modes (``TREE`` for a directory, ``000000`` for no entry),
    its old and new object ids and its paths as segments, two for a rename
    or copy. ``diff-tree --stdin`` writes a ``<tree> <tree>`` line per pair,
    even an equal one, glued to the next record's metadata, which holds no
    newline; such lines are skipped."""
    tokens = iter(out.split("\0"))
    for token in tokens:
        meta = token.rpartition("\n")[2]
        if not meta:  # a trailing pair line, or the end
            continue
        *modes_and_ids, status = meta[1:].split(" ")
        yield status[0], *modes_and_ids, [tuple(next(tokens).split("/")) for _ in range(1 + (status[0] in "RC"))]


def _key(segments: Segments, kind: PathKind) -> CanonicalPath | None:
    """``segments`` as a citation key, or None for a name no key can have:
    one with a backslash, such as ``we\\ird.c``, or one that is not UTF-8,
    which the citation file cannot hold."""
    try:
        key = CanonicalPath(segments, kind)
        key.render().encode("utf-8")
    except (InvalidPath, UnicodeEncodeError):
        return None
    return key


def _infer_directory_moves(
    root: str,
    new_tree: str,
    renames: Sequence[tuple[Segments, Segments]],
    records: Sequence[tuple[str, list[Segments]]],
    gone: set[Segments],
    new_dirs: set[Segments],
) -> list[tuple[Segments, Segments]]:
    """Directory moves implied by git's file ``renames``, in first-seen order.

    Each rename nominates every directory pair left once some of the common
    run of trailing names is cut from both ends: ``src/lib/util.c ->
    vendor/lib/util.c`` nominates ``src/lib -> vendor/lib`` and ``src ->
    vendor``. ``old_dir -> new_dir`` is a move when ``old_dir`` is ``gone``
    with no file deleted under it, every rename out of ``old_dir`` lands at
    its rebased path under ``new_dir``, and every file under ``new_dir`` in
    ``new_tree`` is one of those renames or a new file. A ``new_dir`` that
    already held files is a merge of two directories, and stays
    file-by-file. Every file under a directory of ``new_dirs`` has one of the
    diff ``records``; those under a destination the old tree had are counted
    by one ``ls-tree -r`` each of that directory's tree object. Only the
    outermost moves are returned: a move nested in another follows it by
    prefix.
    """
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
            candidates.setdefault((o[:-k], n[:-k]))
    moves = [(o, n) for o, n in candidates if o in gone and not deleted[o] and agreeing[o, n] == moved_out[o]]
    held = {  # the new tree's files under each destination the old tree had
        n: _git(root, "ls-tree", "-r", "-z", "--name-only", _tree_name(new_tree, n)).stdout.count("\0")
        for n in dict.fromkeys(n for _, n in moves if n not in new_dirs)
    }
    moves = [(o, n) for o, n in moves if agreeing[o, n] + added[n] == (arrived if n in new_dirs else held)[n]]
    olds = {o for o, _ in moves}
    return [(o, n) for o, n in moves if not any(o[:i] in olds for i in range(1, len(o)))]


def _count_dirs(files: Iterable[tuple[str, ...]]) -> Counter:
    """How many of ``files`` (given as segments) lie below each non-root directory."""
    return Counter(f[:i] for f in files for i in range(1, len(f)))


# --- Higher-level worktree operations (used by the CLI) ---------------------


def _with_citation(root: str, tree: tuple[str, str, bytes], blob: str | None = None) -> str:
    """``tree``, an object as :func:`_objects` reads it, with its top citation
    file's entry pointed at ``blob``, in mode 100755 if it had that mode, else
    100644, or cut out when ``blob`` is None; written by one ``hash-object``,
    which refuses a malformed tree. The name stays, so the entries keep git's order."""
    data = tree[2]
    for mode, name, span in _tree_entries(data, len(tree[0]) // 2):
        if name == CITATION_FILE.encode():
            mode = b"100755" if mode == b"100755" else b"100644"
            entry = b"" if blob is None else b"%s %s\0%s" % (mode, name, bytes.fromhex(blob))
            data = data[: span.start] + entry + data[span.stop :]
    return _git(root, "hash-object", "-w", "-t", "tree", "--stdin", input=data).stdout.strip()


def run_merge(root: str, other: str, resolver: Resolver | None) -> tuple[CitationFile, list[ConflictReport]]:
    """Citation-aware branch merge in a real worktree, merging once.

    ``git merge-tree --write-tree`` merges ``HEAD`` and ``other`` in the
    object store only. If it reports a conflict in any path but the citation
    file (content, modify/delete, add/add, ...), or the citation file changed
    type on one head, a :class:`~gitcite.errors.GitCiteError` says so and
    nothing is written. Otherwise the citation file is rebuilt from the base/ours/theirs
    documents by :func:`gitcite.ops.merge_citation_files` instead of being
    text-merged, and :func:`gitcite.ops.carry_keys` drops the keys of the
    paths ``git diff-tree`` reports deleted from either head, as at a commit;
    a key whose path neither head has stays, for ``validate`` to report. Its
    canonical bytes replace the citation entry of the merged tree, ``git
    commit-tree`` commits that tree with both parents (signed when
    ``commit.gpgSign`` is set; no commit hook runs), and ``git merge --ff-only
    --no-autostash`` moves ``HEAD``, the index and the worktree to it in one
    step, never stashing a local edit (a local edit in the way, a staged
    change on a merged path or an untracked file makes git refuse it). A
    citation file that differs from ``HEAD``'s, whose edit the rebuild would
    lose, raises :class:`~gitcite.errors.IoFailure` and touches nothing, as
    does the fast-forward when git refuses it. With ``merge.verifySignatures``
    set, ``other`` must carry a good signature trusted as ``git merge``
    requires (``gpg.minTrustLevel``, else marginal), checked before anything
    is written. Everything before the fast-forward writes only unreferenced
    objects, so a resolver that gives up or a failed step leaves no pending
    merge behind. The writer lock of :func:`update_citation_file` is held from
    the read of the worktree's citation file through the fast-forward.
    """
    if "\0" in other:  # no revision name holds one
        raise GitCiteError(f"unknown revision {other!r}")
    with _WriterLock(root) as lock:  # from the worktree read through the fast-forward
        worktree_bytes = citation_file_bytes(root)  # before any step that may write
        heads = _objects(root, [f"{rev}^{{{kind}}}" for rev in ("HEAD", other) for kind in ("commit", "tree")])
        if heads[2] is None:
            raise GitCiteError(f"unknown revision {other!r}")
        if heads[0] is None:
            raise IoFailure("HEAD has no commit to merge into")
        head_rev, head_tree, other_rev, other_tree = (obj[0] for obj in heads)
        base_proc = _git(root, "merge-base", head_rev, other_rev)
        if base_proc.returncode:
            raise GitCiteError(f"HEAD and {other!r} share no history")
        base_rev = base_proc.stdout.strip()
        if base_rev == other_rev:
            return load_citation_file(root), []  # nothing to merge
        fast_forward = ("merge", "--ff-only", "-q", "--no-autostash")  # whatever merge.autoStash says
        if base_rev == head_rev:
            _git(root, *fast_forward, other_rev)
            return load_citation_file(root), []
        settings = dict(  # each of these keys that is set, with its value
            line.partition(" ")[::2]
            for line in _git(
                root, "config", "--type=bool-or-str", "--get-regexp",
                r"^(commit\.gpgsign|merge\.verifysignatures|gpg\.mintrustlevel)$",
            ).stdout.split("\n")
            if line
        )
        if settings.get("merge.verifysignatures") == "true":  # as git merge checks the merged head
            trust = [] if "gpg.mintrustlevel" in settings else ["-c", "gpg.minTrustLevel=marginal"]
            verify = _git(root, *trust, "verify-commit", other_rev)
            if verify.returncode:
                raise IoFailure(
                    f"merge.verifySignatures: {other} has no good, trusted signature: {verify.stderr.strip()}"
                )

        # merge-tree prints the merged tree's id, then each conflicted path, and exits 1 on a conflict
        trial = _git(root, "merge-tree", "--write-tree", "--name-only", "--no-messages", "-z", head_rev, other_rev)
        merged_tree, *conflicted = trial.stdout.split("\0")
        conflicted = [p for p in conflicted if p and p != CITATION_FILE]
        if {f"{CITATION_FILE}~{rev}" for rev in (head_rev, other_rev)} & set(conflicted):  # git's distinct-types rename
            raise GitCiteError(f"merge refused: {CITATION_FILE} changed type on one branch")
        if conflicted:
            raise GitCiteError(f"merge refused: both branches changed {', '.join(conflicted)}")
        wheres = [f"revision {rev!r}" for rev in (base_rev, "HEAD", other)]
        names = [f"{rev}:{CITATION_FILE}" for rev in (base_rev, head_rev, other_rev)]
        *cites, merged = _objects(root, [*names, merged_tree])
        blobs = [_citation_blob(obj, where) for obj, where in zip(cites, wheres)]
        base_cf, left_cf, right_cf = (decode_citation_file(b, f"{CITATION_FILE} at {w}") for b, w in zip(blobs, wheres))
        if worktree_bytes != blobs[1] and decode_citation_file(worktree_bytes, lock.target) != left_cf:
            raise IoFailure(f"{lock.target} has uncommitted changes; commit or discard them first")

        deleted = [
            key
            for status, old_mode, *_, (path,) in _tree_diff(root, [(head_tree, merged_tree), (other_tree, merged_tree)])
            if status == "D" and (key := _key(path, PathKind.DIRECTORY if old_mode == TREE else PathKind.FILE))
        ]
        merged_cf, conflicts = merge_citation_files(base_cf, left_cf, right_cf, resolver)
        merged_cf = carry_keys(merged_cf, (), deleted)

        blob = _git(root, "hash-object", "-w", "--stdin", input=encode_citation_file(merged_cf)).stdout.strip()
        tree = _with_citation(root, merged, blob)  # in place of the text-merged citation file
        sign = ["-S"] if settings.get("commit.gpgsign") == "true" else []
        commit = _git(
            root, "commit-tree", tree, "-p", head_rev, "-p", other_rev, "-m", f"Merge {other}", *sign
        ).stdout.strip()
        _git(root, *fast_forward, "--no-verify-signatures", commit, failure=f"git merge {other} refused")
        return merged_cf, conflicts


def run_copy(
    root: str, src: str, src_subtree: CanonicalPath, dst_path: CanonicalPath
) -> tuple[CitationFile, list[CanonicalPath]]:
    """Copy a directory of the committed ``HEAD`` of the repository ``src``, a
    path (from the working directory) or a URL as ``git fetch`` reads it, and
    migrate its citations. One fetch writes its objects here, unreferenced;
    a :class:`RevisionLookup` of ``FETCH_HEAD`` reads the tree every later
    step reads, and its citation file, and
    :func:`gitcite.ops.apply_copy` checks and migrates the citations before
    any file is written. Inside one :func:`update_citation_file`, ``git
    read-tree --prefix -u`` then writes and stages the subtree as git holds
    it, with its modes and symlinks: nothing ignored, untracked or
    uncommitted, nor the source's top citation file. If the citation write
    fails, ``git update-index --force-remove`` takes the entries of the tree
    read-tree read out of the index, and the files and directories under the
    destination, which did not exist before, are removed, deepest first.
    Returns the new citation file and the added keys."""
    if "\0" in src:  # no path or URL holds one, and no argument can
        raise IoFailure(f"cannot fetch the HEAD of {src!r}: a name holding a NUL names no repository")
    _git(  # run where ``src`` was typed, into this repository
        ".", f"--git-dir={os.path.join(root, '.git')}", "fetch", "-q", "--no-tags", "--no-auto-maintenance",
        "--no-recurse-submodules", "--end-of-options", src, "HEAD", failure=f"cannot fetch the HEAD of {src!r}",
    )
    fetched = RevisionLookup(root, "FETCH_HEAD")
    src_cf = fetched.citation_file(f"the HEAD of {src!r}")
    dst_dir = "/".join(dst_path.segments) + "/"
    added: list[CanonicalPath] = []
    written: list[str] = []  # the tree read-tree wrote at the destination, once it has

    def copy(cf: CitationFile) -> CitationFile:
        merged, keys = apply_copy(cf, WorktreeLookup(root), src_cf, fetched, src_subtree, dst_path)
        if os.path.lexists(os.path.join(root, *dst_path.segments)):  # such as a directory symlink
            raise GitCiteError(f"{dst_path} already exists")
        tree = _tree_name(fetched.tree[0], src_subtree.segments)
        if src_subtree.is_root:  # the source's tree without its citation file
            tree = _with_citation(root, fetched.tree)
        _git(root, "read-tree", f"--prefix={dst_dir}", "-u", tree)
        written.append(tree)
        added.extend(keys)
        return merged

    try:
        merged = update_citation_file(root, copy)
    except BaseException:
        if written:  # nothing was at the destination before this call's read-tree
            names = []
            try:  # best effort: the error that got here is the one to report
                listing = _git(root, "ls-tree", "-r", "-z", "--name-only", written[0]).stdout
                names = [dst_dir + name for name in listing.split("\0") if name]
                _git(root, "update-index", "--force-remove", "-z", "--stdin", input="".join(f"{n}\0" for n in names))
            except IoFailure:
                pass
            for name in names:
                try:
                    os.unlink(os.path.join(root, name))
                except OSError:  # a submodule's empty directory, removed below
                    pass
            for current, _, _ in os.walk(os.path.join(root, *dst_path.segments), topdown=False):
                try:
                    os.rmdir(current)
                except OSError:  # not empty: left as it is
                    pass
        raise
    return merged, added
