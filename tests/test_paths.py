from __future__ import annotations

import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from gitcite.errors import InvalidPath
from gitcite.paths import ROOT, CanonicalPath, PathKind, canonicalize, from_rendered

from support import tree

SEGMENT = st.text(alphabet="abcdefgh0._-", min_size=1, max_size=8).filter(
    lambda s: s not in (".", "..")
)
PATHS = st.builds(
    CanonicalPath,
    st.lists(SEGMENT, min_size=1, max_size=6).map(tuple),
    st.sampled_from([PathKind.FILE, PathKind.DIRECTORY]),
)


def test_root_renders_as_slash():
    assert str(ROOT) == "/"
    assert ROOT.is_root and ROOT.is_dir and not ROOT.is_file


def test_the_root_is_the_directory_with_no_segments():
    assert list(PathKind) == [PathKind.FILE, PathKind.DIRECTORY]
    assert CanonicalPath((), PathKind.DIRECTORY) == ROOT and ROOT.kind is PathKind.DIRECTORY
    assert from_rendered("/a.c").parent() == ROOT and from_rendered("/a/").parent() == ROOT
    assert from_rendered("/a/").rebased(from_rendered("/a/"), ROOT) == ROOT
    assert tree("/a.c").kind_of(()) is PathKind.DIRECTORY
    with pytest.raises(InvalidPath):
        CanonicalPath((), PathKind.FILE)


def test_rendering_rules():
    assert str(CanonicalPath(("src", "main.c"), PathKind.FILE)) == "/src/main.c"
    assert str(CanonicalPath(("src", "lib"), PathKind.DIRECTORY)) == "/src/lib/"


def test_empty_input_is_the_root_whatever_the_hint():
    assert canonicalize("") == ROOT
    assert canonicalize("", kind_hint=PathKind.FILE) == ROOT
    assert canonicalize(".", kind_hint=PathKind.DIRECTORY) == ROOT
    assert canonicalize("/") == ROOT
    assert canonicalize("..", ("a",)) == ROOT


def test_dot_segments_are_dropped():
    assert str(canonicalize("src/./main.c", kind_hint=PathKind.FILE)) == "/src/main.c"
    assert str(canonicalize("./src/main.c", kind_hint=PathKind.FILE)) == "/src/main.c"


@pytest.mark.parametrize("raw, key", [("a/../b", "/b"), ("a//b", "/a/b"), ("//a/./b/", "/a/b/"), ("a/b/..", "/a/")])
def test_traversal_and_empty_segments_are_normalized(raw, key):
    assert str(canonicalize(raw)) == key


@pytest.mark.parametrize("raw", ["..", "a\\b"])
def test_invalid_inputs(raw):
    with pytest.raises(InvalidPath):
        canonicalize(raw, kind_hint=PathKind.FILE)


@pytest.mark.parametrize("raw, cwd", [("..", ()), ("a/../..", ()), ("../../x", ("a",)), ("/../a", ("a",))])
def test_a_path_above_the_root_is_refused(raw, cwd):
    with pytest.raises(InvalidPath, match=f"^{re.escape(repr(raw))} is outside the repository$"):
        canonicalize(raw, cwd)


def test_relative_paths_start_from_the_cwd_and_anchored_ones_from_the_root():
    assert str(canonicalize("x.c", ("src", "lib"))) == "/src/lib/x.c"
    assert str(canonicalize("../x.c", ("src", "lib"))) == "/src/x.c"
    assert str(canonicalize("/x.c", ("src", "lib"))) == "/x.c"
    assert canonicalize(".", ("src",)) == from_rendered("/src/")


def test_the_kind_comes_from_the_marker_then_the_hint_then_the_tree():
    snapshot = tree("/src/lib/x.c", "/src/main.c")
    assert str(canonicalize("src/lib")) == "/src/lib"  # no marker, hint or tree: a file
    assert str(canonicalize("src/lib", tree=snapshot)) == "/src/lib/"
    assert str(canonicalize("src/lib", kind_hint=PathKind.FILE, tree=snapshot)) == "/src/lib"
    assert str(canonicalize("src/main.c/", kind_hint=PathKind.FILE, tree=snapshot)) == "/src/main.c/"
    assert str(canonicalize("src/main.c/..", tree=snapshot)) == "/src/"
    assert str(canonicalize("src/absent", tree=snapshot)) == "/src/absent"


_ROOT_DIR = "/repo-top"  # a directory name that no drawn segment can spell


def _by_normpath(raw: str, cwd: tuple[str, ...], snapshot) -> CanonicalPath | None:
    """Oracle: ``raw`` resolved with ``os.path`` under a synthetic root, None
    when it lands outside it."""
    base = _ROOT_DIR if raw.startswith("/") else os.path.join(_ROOT_DIR, *cwd)
    rel = os.path.relpath(os.path.normpath(os.path.join(base, raw.lstrip("/"))), _ROOT_DIR)
    if rel == os.pardir or rel.startswith(os.pardir + os.sep):
        return None
    if rel == os.curdir:
        return ROOT
    segments = tuple(rel.split(os.sep))
    marked = raw in ("", ".", "..") or raw.endswith(("/", "/.", "/.."))
    return CanonicalPath(segments, PathKind.DIRECTORY if marked else snapshot.kind_of(segments) or PathKind.FILE)


_PARTS = st.lists(st.sampled_from(["a", "b", ".", "..", ""]), max_size=6)


@settings(max_examples=300)
@given(
    st.tuples(st.sampled_from(["", "/"]), _PARTS, st.sampled_from(["", "/"])).map(
        lambda t: t[0] + "/".join(t[1]) + t[2]
    ),
    st.lists(st.sampled_from(["a", "b"]), max_size=3).map(tuple),
    st.sampled_from([tree(), tree("/a/b", "/b/a/a"), tree("/a", "/b/b/b")]),
)
def test_canonicalize_agrees_with_normpath(raw, cwd, snapshot):
    expected = _by_normpath(raw, cwd, snapshot)
    if expected is None:
        with pytest.raises(InvalidPath, match="is outside the repository"):
            canonicalize(raw, cwd, tree=snapshot)
    else:
        assert canonicalize(raw, cwd, tree=snapshot) == expected


def test_equality_follows_rendered_form():
    a = CanonicalPath(("a",), PathKind.FILE)
    b = CanonicalPath(("a",), PathKind.DIRECTORY)
    assert a != b
    assert a == from_rendered("/a")
    assert b == from_rendered("/a/")
    assert sorted([b, a, ROOT]) == [ROOT, a, b]


@given(PATHS)
def test_canonicalize_is_idempotent_on_rendered_forms(path):
    assert canonicalize(str(path)) == path
    assert from_rendered(str(path)) == path


def test_parent_chain_ends_at_root():
    path = from_rendered("/a/b/c")
    assert [str(p) for p in path.ancestors()] == ["/a/b/", "/a/", "/"]
    assert ROOT.parent() is None


def test_is_within():
    d = from_rendered("/a/")
    assert from_rendered("/a/x.c").is_within(d)
    assert d.is_within(d)
    assert not from_rendered("/a").is_within(d)  # file named like the directory
    assert not from_rendered("/ab/x.c").is_within(d)


def test_rebased_rewrites_prefixes():
    assert str(from_rendered("/a/x/f.c").rebased(from_rendered("/a/"), from_rendered("/b/c/"))) == "/b/c/x/f.c"
    assert str(from_rendered("/a/").rebased(from_rendered("/a/"), from_rendered("/b/"))) == "/b/"
    assert str(from_rendered("/old.c").rebased(from_rendered("/old.c"), from_rendered("/new.c"))) == "/new.c"
    assert str(ROOT.rebased(ROOT, from_rendered("/sub/"))) == "/sub/"
    with pytest.raises(InvalidPath):
        from_rendered("/elsewhere").rebased(from_rendered("/a/"), from_rendered("/b/"))


def test_from_rendered_is_strict():
    for bad in ("a/b", "/a//b", "/a/./b", "/a/../b", ""):
        with pytest.raises(InvalidPath):
            from_rendered(bad)
