"""The exit-code contract as a property: whatever command line a user types,
in a checkout holding entries git does not carry and a citation file that
may be broken, ``gitcite`` ends in a documented exit code with at most one
line of explanation, and leaves the citation file as it was or parseable."""

from __future__ import annotations

import contextlib
import io
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gitcite import CitationFile
from gitcite.cli import main
from gitcite.fileformat import parse, serialize
from gitcite.paths import ROOT, from_rendered

from conftest import git, init_repo
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
