from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from gitcite.errors import InvalidPath, UnknownKind
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


def test_dot_segments_are_dropped():
    assert str(canonicalize("src/./main.c", kind_hint=PathKind.FILE)) == "/src/main.c"
    assert str(canonicalize("./src/main.c", kind_hint=PathKind.FILE)) == "/src/main.c"


@pytest.mark.parametrize("raw", ["a/../b", "..", "a//b", "a\\b"])
def test_invalid_inputs(raw):
    with pytest.raises(InvalidPath):
        canonicalize(raw, kind_hint=PathKind.FILE)


def test_unknown_kind_without_hint_or_tree():
    with pytest.raises(UnknownKind):
        canonicalize("src/lib")


def test_trailing_slash_contradicting_file_hint():
    with pytest.raises(InvalidPath):
        canonicalize("src/lib/", kind_hint=PathKind.FILE)


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


def test_is_within_and_covers():
    d = from_rendered("/a/")
    assert from_rendered("/a/x.c").is_within(d)
    assert d.is_within(d)
    assert not from_rendered("/a").is_within(d)  # file named like the directory
    assert not from_rendered("/ab/x.c").is_within(d)
    assert d.covers(from_rendered("/a/b/c"))
    assert not from_rendered("/a/x.c").covers(from_rendered("/a/x.c/y"))
    assert from_rendered("/a/x.c").covers(from_rendered("/a/x.c"))
    assert ROOT.covers(from_rendered("/anything"))


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
