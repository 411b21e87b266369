"""The exit-code contract as a property: whatever command line a user types,
in a checkout holding entries git does not carry and a citation file that
may be broken, ``gitcite`` ends in a documented exit code with at most one
line of explanation, and leaves the citation file as it was or parseable.
And whichever git call fails, a command exits 3 and leaves the checkout as
it was: no failed git call is read as an answer."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import stat
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gitcite import CitationFile, gitadapter
from gitcite.cli import main
from gitcite.errors import IoFailure
from gitcite.fileformat import parse, serialize
from gitcite.gitadapter import load_citation_file, staged_changes, sync_on_commit
from gitcite.paths import ROOT, from_rendered

from conftest import PATHSPEC_SETTINGS, git, init_repo, seed
from support import record, store_citation_file

COMMITTED = CitationFile(
    {ROOT: record("root"), from_rendered("/a.c"): record("a"), from_rendered("/sub/"): record("sub")}
)
HAND_EDITED = COMMITTED.with_entry(from_rendered("/fifo"), record("f"))
# The worktree's top citation.cite in each checkout; the committed one is COMMITTED.
TOPS = {
    "canonical": serialize(COMMITTED).encode(),
    # Not canonical, with a key for the FIFO: validate warns and reports it.
    "hand-edited": json.dumps(json.loads(serialize(HAND_EDITED))).encode(),
    "empty": b"",
    "bom": b"\xef\xbb\xbf" + serialize(COMMITTED).encode(),
    "malformed": b'{"/": {"owner": ',
    "not-utf8": b'{"/": "\xff"}\n',
    "directory": None,
    "symlink": None,
}


def _checkout(root: Path, top: str) -> Path:
    """A committed checkout, then a FIFO, a dangling symlink, a symlink to a
    directory and the top citation file named by ``top``; a nested
    ``sub/citation.cite`` is an ordinary committed file."""
    init_repo(root)
    for rel, text in {"a.c": "a", "sub/s.c": "s", "sub/citation.cite": "{}\n", "target/t.c": "t"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    store_citation_file(root, COMMITTED)
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "seed")
    os.mkfifo(root / "fifo")
    (root / "dangling").symlink_to("no-such-target")
    (root / "dirlink").symlink_to("target", target_is_directory=True)
    cite = root / "citation.cite"
    if top == "directory":
        cite.unlink()
        cite.mkdir()
    elif top == "symlink":
        cite.rename(root / "real.cite")
        cite.symlink_to("real.cite")
    else:
        cite.write_bytes(TOPS[top])
    return root


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory) -> dict[str, Path]:
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    base = tmp_path_factory.mktemp("exit-codes")
    return {top: _checkout(base / top, top) for top in TOPS}


def _top_state(root: Path) -> tuple[object, ...]:
    """The top citation file as it stands: its kind and its bytes or target."""
    cite = root / "citation.cite"
    mode = os.lstat(cite).st_mode
    if stat.S_ISLNK(mode):
        return "symlink", os.readlink(cite)
    if stat.S_ISDIR(mode):
        return "directory", tuple(os.listdir(cite))
    return "file", cite.read_bytes()


_SEGMENTS = st.sampled_from([
    "a.c", "sub", "s.c", "citation.cite", "target", "t.c", "fifo", "dangling", "dirlink", ".git", "new.c",
    ".", "..", "", "bad\udcff.c", "nul\x00.c", "new\nline.c",
])


@st.composite
def _paths(draw) -> str:
    """A path as a user might type it: relative or absolute, empty, escaping
    the top, not UTF-8, holding a NUL or a newline, or ending in '/'."""
    text = "/".join(draw(st.lists(_SEGMENTS, max_size=3)))
    text = draw(st.sampled_from(["", "/", "../", "/tmp/"])) + text
    return text + "/" if draw(st.booleans()) else text


_EDITS = st.lists(
    st.sampled_from([
        ["--field", "owner=X"], ["--field", "owner="], ["--field", "note=\udcff"], ["--field", "=x"],
        ["--field", "authors=A"], ["--authors", "A, B"],
    ]),
    max_size=2,
).map(lambda options: [word for option in options for word in option])


# Each fails before it writes: a source that is no repository, or a name holding a NUL.
_COPY_SOURCES = st.sampled_from(["no-such-repo", "x\x00y"])
_REVISIONS = st.sampled_from(["HEAD", "no-such-rev", "HEAD\x00", "\x00", "a\nb"])
_USAGE = st.sampled_from([
    [], ["nope"], [""], ["-x"], ["nul\x00"], ["gen"], ["gen", "a.c", "--version"], ["gen", "a.c", "--format"],
    ["gen", "a.c", "--format", "xml"], ["add", "a.c", "--field"], ["modify", "a.c", "--authors"],
    ["gen", "a.c", "--vers", "HEAD"], ["merge", "HEAD", "--ours", "--theirs"], ["copy", "x"], ["del", "a.c", "b.c"],
])


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["gen", "gen-version", "add", "modify", "del", "validate", "merge", "copy", "help", "usage"]
    ))
    if command == "validate":
        return ["validate"]
    if command == "usage":
        return draw(_USAGE)
    if command == "help":
        return draw(st.sampled_from([["-h"], ["--help"], ["gen", "-h"], ["merge", "HEAD", "--help"]]))
    if command == "merge":
        return ["merge", draw(_REVISIONS), *draw(st.sampled_from([[], ["--ours"], ["--theirs"]]))]
    path = draw(_paths())
    if command == "copy":
        return ["copy", draw(_COPY_SOURCES), draw(st.sampled_from(["sub", "/"])), path]
    if command == "gen-version":
        return ["gen", path, "--version", draw(_REVISIONS)]
    if command in ("add", "modify"):
        return [command, path, *draw(_EDITS)]
    return [command, path]


def _run(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """``main(argv)`` in ``cwd``, with stdout strict UTF-8 and stderr
    backslash-escaped, as Python sets them up in a UTF-8 locale."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", errors="strict")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace")
    old_cwd = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
            stdout.flush()
            stderr.flush()
    finally:
        os.chdir(old_cwd)
    return code, out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TOPS)), st.sampled_from(["", "sub"]), _argvs())
def test_every_command_ends_in_a_documented_exit_code(checkouts, top, cwd, argv):
    root = checkouts[top]
    before, listing = _top_state(root), sorted(os.listdir(root))
    try:
        code, out, err = _run(argv, root / cwd)
        assert code in (0, 1, 2, 3), (argv, code, err)
        one_line = err.startswith("gitcite: ") and err.count("\n") == 1 and err.endswith("\n")
        if code == 2:  # a usage error: one line, before anything runs
            assert out == "" and one_line, (argv, err)
        if code in (1, 3):
            if argv[0] == "validate" and code == 1 and not one_line:  # the inconsistencies, on stdout
                warning = f"{os.path.realpath(root)}/citation.cite is not in canonical form; was it edited by hand?\n"
                assert out and err in ("", warning), (out, err)
            else:
                assert one_line, (argv, code, err)
        after = _top_state(root)
        if after != before:
            assert before[0] == after[0] == "file", (argv, before, after)
            parse(after[1].decode("utf-8"))
        assert sorted(os.listdir(root)) == listing, argv  # no lock or temporary file left
    finally:
        if before[0] == "file" and _top_state(root) != before:
            (root / "citation.cite").write_bytes(before[1])


@pytest.mark.parametrize("version", [[], ["--version", "HEAD"]], ids=["worktree", "revision"])
def test_a_path_holding_a_nul_is_named_on_one_line(checkouts, version):
    # No git path holds a NUL, so its lookup asks git nothing; the message escapes it.
    code, out, err = _run(["gen", "nul\x00.c", *version], checkouts["canonical"])
    assert (code, out, err) == (1, "", "gitcite: /nul\\x00.c is not in the tree\n")


# --- Every git call failing in turn ------------------------------------------


def _failing_git(monkeypatch, k: int) -> list[list[str]]:
    """Make the ``k``-th git call of gitcite fail as git fails fatally, with
    exit 128 and ``fatal: injected``, without running it; every other call
    runs. Returns the calls made, so a run that makes fewer than ``k`` is one
    that no fault reached. ``_git`` runs git through ``subprocess.run``, so it
    reads the injected exit as it reads any other."""
    calls: list[list[str]] = []
    real_run = subprocess.run

    def run(argv, **kwargs):
        calls.append(argv)
        if len(calls) == k:
            return subprocess.CompletedProcess(argv, 128, b"", b"fatal: injected\n")
        return real_run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def _state(root: Path) -> tuple[object, ...]:
    """What a failed command must leave as it was: ``HEAD``, the index, ``git
    status``, the citation file's bytes, and no lock or pending merge.
    ``FETCH_HEAD`` and unreferenced objects do not count."""
    listings = [git(root, *args, check=False).stdout for args in (
        ["rev-parse", "HEAD"], ["ls-files", "-s"], ["status", "--porcelain"],
    )]
    cite = root / "citation.cite"
    return (
        listings, cite.read_bytes() if cite.exists() else None,
        (root / "citation.cite.lock").exists(), sorted(p.name for p in (root / ".git").glob("MERGE_*")),
    )


def _source(root: Path) -> Path:
    init_repo(root)
    seed(root, {"sub/a.c": "a", "sub/deep/b.c": "b", "top.c": "t"}, {"/sub/deep/": "deep"})
    return root


def _merging(root: Path) -> Path:
    """Both branches changed ``/shared.c``'s record, and each a file of its own."""
    init_repo(root)
    seed(root, {"shared.c": "s"}, {"/shared.c": "base"})
    for branch, new in (("side", ["checkout", "-q", "-b", "side"]), ("main", ["checkout", "-q", "main"])):
        git(root, *new)
        (root / f"{branch}.c").write_text(branch)
        store_citation_file(root, load_citation_file(root).with_entry(from_rendered("/shared.c"), record(branch)))
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", branch)
    return root


def _init(root: Path) -> Path:
    init_repo(root)  # no origin: the origin, then user.name, then the log
    git(root, "commit", "-q", "--allow-empty", "-m", "first")
    return root


def _cited(root: Path) -> Path:
    init_repo(root)
    seed(root, {"a.c": "a", "d/f.c": "f"}, {"/a.c": "a", "/d/": "d"})
    return root


def _copying(root: Path) -> Path:
    _source(root.parent / "src")
    return _cited(root)


# Each command, the builder of the checkout it runs in (a copy's source goes
# beside it), and the number of git calls it makes when nothing fails.
SWEEP = {
    "init": (_init, ["init"], 3),
    "copy-subtree": (_copying, ["copy", "../src", "sub/", "vendor/"], 3),
    "copy-root": (_copying, ["copy", "../src", "/", "whole/"], 4),
    "merge": (_merging, ["merge", "side", "--ours"], 10),
    "gen-version": (_cited, ["gen", "d/f.c", "--version", "HEAD"], 2),
}


@pytest.mark.parametrize("scenario", sorted(SWEEP))
def test_every_failed_git_call_exits_3_and_changes_nothing(tmp_path, monkeypatch, scenario):
    build, argv, n_calls = SWEEP[scenario]
    root = build(tmp_path / "checkout")
    before, k = _state(root), 0
    while True:  # fail the 1st call, the 2nd, ..., until a run that no fault reached
        k += 1
        with monkeypatch.context() as patch:
            calls = _failing_git(patch, k)
            code, out, err = _run(argv, root)
        if len(calls) < k:
            break
        assert (code, err.count("\n"), err[:9]) == (3, 1, "gitcite: "), (k, calls[k - 1], code, err)
        assert err.endswith(": fatal: injected\n"), (k, err)
        assert _state(root) == before, (k, calls[k - 1])
    assert (code, err, len(calls)) == (0, "", n_calls), (err, calls)


def test_every_failed_git_call_of_a_sync_raises(tmp_path, monkeypatch):
    root = _cited(tmp_path)
    git(root, "mv", "d", "e")
    before, k = _state(root), 0
    while True:
        k += 1
        with monkeypatch.context() as patch:
            calls = _failing_git(patch, k)
            try:
                synced = sync_on_commit(str(root), *staged_changes(str(root)))
            except IoFailure as exc:
                assert str(exc).endswith(": fatal: injected"), (k, exc)
            else:
                assert len(calls) < k, (k, calls[k - 1])
                break
        assert _state(root) == before, (k, calls[k - 1])
    assert len(calls) == 4 and from_rendered("/e/") in synced, calls


# --- Every OS call of the citation file's write failing in turn -------------


def _failing_write(monkeypatch, k: int) -> list[str]:
    """Make the ``k``-th OS call of the writer lock fail with an injected
    ``OSError``: the lock's exclusive ``open``, the ``write`` into it, the
    ``os.stat`` and ``os.fchmod`` that copy the old file's permission bits,
    and the ``os.replace`` over the citation file. Returns the calls made, by
    name. Only ``gitadapter``'s own names are patched, so ``os.path.exists``
    still stats for real."""
    calls: list[str] = []

    def fault(name: str) -> None:
        calls.append(name)
        if len(calls) == k:
            raise OSError(errno.EIO, f"injected {name} fault")

    class Writer(io.BufferedWriter):
        def write(self, data):
            fault("write")
            return super().write(data)

    def lock_open(path, mode="r", *args, **kwargs):
        if mode != "xb":
            return open(path, mode, *args, **kwargs)
        fault("open")
        return Writer(io.FileIO(path, "xb"))

    class Os:
        def __getattr__(self, name):
            real = getattr(os, name)
            if name not in ("stat", "fchmod", "replace"):
                return real

            def call(*args, **kwargs):
                fault(name)
                return real(*args, **kwargs)

            return call

    monkeypatch.setattr(gitadapter, "open", lock_open, raising=False)
    monkeypatch.setattr(gitadapter, "os", Os())
    return calls


# Each command, the builder of its checkout, and the OS calls of its write.
WRITES = {
    "add": (_cited, ["add", "d/f.c", "--field", "owner=X"], ["open", "write", "stat", "fchmod", "replace"]),
    "del": (_cited, ["del", "a.c"], ["open", "write", "stat", "fchmod", "replace"]),
    "modify": (_cited, ["modify", "a.c", "--field", "owner=X"], ["open", "write", "stat", "fchmod", "replace"]),
    "init": (_init, ["init"], ["open", "write", "replace"]),  # no old file, so no permission bits to copy
    # After read-tree wrote the destination, which each fault must take out again.
    "copy-subtree": (_copying, ["copy", "../src", "sub/", "vendor/"], ["open", "write", "stat", "fchmod", "replace"]),
    "copy-root": (_copying, ["copy", "../src", "/", "whole/"], ["open", "write", "stat", "fchmod", "replace"]),
}


@pytest.mark.parametrize("scenario", sorted(WRITES))
def test_every_failed_write_call_exits_3_and_keeps_the_file(tmp_path, monkeypatch, scenario):
    build, argv, os_calls = WRITES[scenario]
    root = build(tmp_path / "checkout")
    before, k = _state(root), 0
    while True:  # fail the 1st call, the 2nd, ..., until a run that no fault reached
        k += 1
        with monkeypatch.context() as patch:
            calls = _failing_write(patch, k)
            code, out, err = _run(argv, root)
        if len(calls) < k:
            break
        assert (code, err.count("\n"), err[:9]) == (3, 1, "gitcite: "), (k, calls, code, err)
        assert f"injected {calls[k - 1]} fault" in err, (k, err)
        assert _state(root) == before, (k, calls)
    assert (code, err, calls) == (0, "", os_calls)
    assert _state(root) != before


# --- A malformed git configuration -------------------------------------------


@pytest.fixture
def broken_config(tmp_path) -> Path:
    """A cited checkout whose ``.git/config`` ends in the line ``[core``, so
    every git call that reads the configuration exits 128."""
    root = _cited(tmp_path)
    git(root, "mv", "d", "e")
    with open(root / ".git" / "config", "a") as config:
        config.write("[core\n")
    return root


def test_a_sync_with_a_broken_config_raises(broken_config):
    with pytest.raises(IoFailure, match=r"^git cat-file --batch -z failed: fatal: bad config line"):
        staged_changes(str(broken_config))


def test_init_with_a_broken_config_names_git_s_message(broken_config):
    (broken_config / "citation.cite").unlink()
    code, out, err = _run(["init"], broken_config)
    assert (code, out) == (3, "")
    assert err.startswith("gitcite: git config --get remote.origin.url failed: fatal: bad config line "), err
    assert err.count("\n") == 1 and not (broken_config / "citation.cite").exists()


def test_init_before_the_first_commit_credits_the_owner(tmp_path):
    root = init_repo(tmp_path)
    assert _run(["init"], root)[0] == 0
    drafted = load_citation_file(str(root)).get(ROOT)
    assert (drafted.owner, drafted.author_list, drafted.version_id, drafted.date) == (
        "Ada Tester", ("Ada Tester",), "", ""
    )


# --- Paths the file system will not look up, and refusals -----------------------


@pytest.mark.parametrize(
    "argv", [["gen", "d/f.c"], ["add", "d/f.c", "--field", "owner=o"], ["validate"]], ids=["gen", "add", "validate"]
)
def test_a_directory_lstat_may_not_read_exits_3_and_keeps_the_file(tmp_path, monkeypatch, argv):
    # Root may search any directory, so the refusal is injected: a failed lookup is no missing path.
    root = _cited(tmp_path)
    shut, real_lstat = os.path.realpath(root / "d"), os.lstat

    def lstat(path, *args, **kwargs):
        if os.fspath(path) == shut:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_lstat(path, *args, **kwargs)

    before = _state(root)
    monkeypatch.setattr(os, "lstat", lstat)
    code, out, err = _run(argv, root)
    assert (code, out, err) == (3, "", f"gitcite: [Errno 13] Permission denied: '{shut}'\n")
    assert _state(root) == before


def test_a_name_too_long_for_the_file_system_is_not_in_the_tree(tmp_path):
    root = _cited(tmp_path)
    name = "x" * 300
    with pytest.raises(OSError) as err:
        os.lstat(root / name)
    assert err.value.errno == errno.ENAMETOOLONG
    assert _run(["gen", name], root) == (1, "", f"gitcite: /{name} is not in the tree\n")


def test_a_merge_into_a_branch_with_no_commit_exits_3_and_changes_nothing(tmp_path):
    root = _merging(tmp_path)
    git(root, "checkout", "-q", "--orphan", "lonely")
    before = _state(root)
    assert _run(["merge", "main", "--ours"], root) == (3, "", "gitcite: HEAD has no commit to merge into\n")
    assert _state(root) == before


def test_a_copy_onto_the_root_exits_1_and_changes_nothing(tmp_path):
    root = _copying(tmp_path / "checkout")
    before = _state(root)
    assert _run(["copy", "../src", "sub/", "/"], root) == (1, "", "gitcite: / is not a valid destination directory\n")
    assert _state(root) == before


# --- A user's global pathspec setting -----------------------------------------


@contextlib.contextmanager
def _pathspec_setting(setting: str | None):
    """Only ``setting`` of git's global pathspec settings set to 1, or none."""
    with pytest.MonkeyPatch.context() as env:
        for name in PATHSPEC_SETTINGS:
            env.delenv(name, raising=False)
        if setting:
            env.setenv(setting, "1")
        yield


def _synced(root: Path) -> object:
    """The library sync of the staged changes: its renames, deletions and
    the citation file's bytes, or the message of the failure."""
    try:
        renames, deleted = staged_changes(str(root))
        sync_on_commit(str(root), renames, deleted)
    except IoFailure as exc:
        return str(exc)
    return [(str(a), str(b)) for a, b in renames], [str(d) for d in deleted], (root / "citation.cite").read_bytes()


def _pathspec_runs(base: Path, setting: str | None) -> list[object]:
    """What gitcite prints, exits with and writes in checkouts built under
    ``base``, its own calls alone made under ``setting``: ``gen --version``
    of a file, a directory, an absent path and a directory holding a
    newline; a copy of a subtree and of ``/``; and the sync of a directory
    moved onto ``b*`` and onto ``:b``, which a pattern would read as
    taking in a sibling."""
    runs: list[object] = []
    cited = init_repo(base / "cited")
    seed(cited, {"a.c": "a", "d/f.c": "f", "new\nline/g.c": "g"}, {"/d/": "d"})
    for path in ("d/f.c", "d", "nope.c", "new\nline"):
        with _pathspec_setting(setting):
            runs.append(_run(["gen", path, "--version", "HEAD"], cited))
    copying = _copying(base / "copy")
    for argv in (["copy", "../src", "sub/", "vendor/"], ["copy", "../src", "/", "whole/"]):
        with _pathspec_setting(setting):
            runs.append(_run(argv, copying))
    runs += [git(copying, *args).stdout for args in (["ls-files", "-s"], ["status", "--porcelain"])]
    runs.append((copying / "citation.cite").read_bytes())
    for name, sibling in (("b*", "bx"), (":b", "b")):
        root = init_repo(base / f"sync-{sibling}")
        lines = "".join(f"#include <common{i}.h>\n" for i in range(30))  # over 400 bytes: a rename source
        seed(root, {"a/x.c": lines + "alpha\n", f"{name}/x.c": lines + "dest\n", f"{sibling}/y.c": "other\n"}, {"/a/": "a"})
        git(root, "--literal-pathspecs", "rm", "-r", "-q", name)
        git(root, "--literal-pathspecs", "mv", "a", name)
        with _pathspec_setting(setting):
            runs.append(_synced(root))
    return runs


@pytest.mark.parametrize("setting", PATHSPEC_SETTINGS)
def test_a_pathspec_setting_changes_nothing_gitcite_does(tmp_path, setting):
    # gitcite names git's objects, which git never reads as pathspecs.
    unset = _pathspec_runs(tmp_path / "unset", None)
    assert [run[0] for run in unset[:6]] == [0, 0, 1, 0, 0, 0], unset
    assert [run[0][0] for run in unset[-2:]] == [("/a/", "/b*/"), ("/a/", "/:b/")], unset
    assert _pathspec_runs(tmp_path / "set", setting) == unset
