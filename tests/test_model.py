from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from gitcite import CitationFile, CitationRecord, resolve, validate
from gitcite.errors import EditConflict, MissingRoot, PathNotInTree
from gitcite.model import DANGLING_KEY, KIND_MISMATCH, MISSING_ROOT, TreeSnapshot, resolve_from_entries
from gitcite.paths import ROOT, CanonicalPath, PathKind, from_rendered

import randgen
from support import record, resolve_by_walking, tree


class TestCitationRecord:
    def test_required_fields(self):
        for missing in ("owner", "repo_name", "locator"):
            with pytest.raises(ValueError):
                record("x", **{missing: ""})

    def test_author_list_becomes_tuple(self):
        rec = CitationRecord("o", "r", "u", author_list=["a", "b"])
        assert rec.author_list == ("a", "b")

    def test_extras_keys_are_sorted_and_checked(self):
        rec = CitationRecord("o", "r", "u", extras={"z": "1", "a": "2"})
        assert list(rec.extras) == ["a", "z"]
        with pytest.raises(ValueError):
            CitationRecord("o", "r", "u", extras={"owner": "shadow"})
        with pytest.raises(ValueError):
            CitationRecord("o", "r", "u", extras={"k": 3})  # type: ignore[dict-item]

    def test_equality_ignores_extras_insertion_order(self):
        a = CitationRecord("o", "r", "u", extras={"x": "1", "y": "2"})
        b = CitationRecord("o", "r", "u", extras={"y": "2", "x": "1"})
        assert a == b


class TestTreeSnapshot:
    def test_contains_is_kind_aware(self):
        snap = tree("/src/main.c", dirs=("/empty/",))
        assert snap.contains(from_rendered("/src/main.c"))
        assert snap.contains(from_rendered("/src/"))
        assert snap.contains(from_rendered("/empty/"))
        assert snap.contains(ROOT)
        assert not snap.contains(from_rendered("/src"))  # directory, asked as file
        assert not snap.contains(from_rendered("/src/main.c/"))
        assert not snap.contains(from_rendered("/ghost"))

    def test_paths_are_sorted_and_complete(self):
        snap = tree("/b/x.c", "/a.c")
        assert [str(p) for p in snap.paths()] == ["/", "/a.c", "/b/", "/b/x.c"]

    def test_structural_edits(self):
        snap = tree("/a/one.c")
        snap = snap.with_file(from_rendered("/a/two.c"), "d2").with_dir(from_rendered("/b/c/"))
        assert [str(p) for p in snap.paths()] == ["/", "/a/", "/a/one.c", "/a/two.c", "/b/", "/b/c/"]
        with pytest.raises(EditConflict):
            snap.with_file(from_rendered("/a/one.c/x.c"))
        with pytest.raises(EditConflict):
            snap.with_dir(from_rendered("/a/one.c/"))


def _fold_single_edits(files, dirs) -> TreeSnapshot:
    snap = TreeSnapshot()
    for path, digest in files:
        snap = snap.with_file(path, digest)
    for path in dirs:
        snap = snap.with_dir(path)
    return snap


_segments = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple)


@given(
    st.lists(st.tuples(_segments, st.sampled_from(["", "d1", "d2"])), max_size=12),
    st.lists(_segments, max_size=5),
)
def test_bulk_build_matches_folding_single_edits(file_entries, dir_segments):
    files = [(CanonicalPath(segs, PathKind.FILE), digest) for segs, digest in file_entries]
    dirs = [CanonicalPath(segs, PathKind.DIRECTORY) for segs in dir_segments]
    try:
        expected = _fold_single_edits(files, dirs)
    except EditConflict:
        with pytest.raises(EditConflict):
            TreeSnapshot.from_files(dict(file_entries), dir_segments)
        return
    assert TreeSnapshot.from_files(dict(file_entries), dir_segments) == expected


@st.composite
def _trees(draw) -> TreeSnapshot:
    """A valid tree: random files and directories, less those that clash."""
    files = draw(st.dictionaries(_segments, st.sampled_from(["", "d1", "d2"]), max_size=8))
    files = {s: d for s, d in files.items() if not any(f != s and s[: len(f)] == f for f in files)}
    dirs = [s for s in draw(st.lists(_segments, max_size=4)) if not any(s[: len(f)] == f for f in files)]
    return TreeSnapshot.from_files(files, dirs)


@given(st.data())
def test_single_edits_match_building_the_edited_path_list(data):
    snap = data.draw(_trees())
    path = data.draw(st.one_of(st.sampled_from(snap.paths()), st.just(ROOT), _kinded_path))
    # The edited path list; directories are dict keys too.
    files, dirs = dict(snap.files), dict.fromkeys(s for s in snap.dirs if s)
    if data.draw(st.booleans()):
        digest = data.draw(st.sampled_from(["", "d3"]))
        invalid = not path.is_file
        files[path.segments] = digest
        apply = lambda: snap.with_file(path, digest)  # noqa: E731
    else:
        invalid = not path.is_dir or path.is_root
        dirs[path.segments] = None
        apply = lambda: snap.with_dir(path)  # noqa: E731
    if not invalid:
        try:
            expected = TreeSnapshot.from_files(files, dirs)
        except EditConflict:
            invalid = True  # the edited path list clashes: a file where a directory must be
    if invalid:
        with pytest.raises(EditConflict):
            apply()
    else:
        assert apply() == expected


def _resolve_by_scanning(cf: CitationFile, path: CanonicalPath) -> CitationRecord:
    """Reference: the deepest of all keys that cover ``path``."""
    covering = [key for key in cf if key.covers(path)]
    if not covering:
        raise MissingRoot(str(path))
    return cf.get(max(covering, key=lambda key: len(key.segments)))


_kinded_path = st.tuples(_segments, st.sampled_from([PathKind.FILE, PathKind.DIRECTORY])).map(
    lambda t: CanonicalPath(*t)
)


@given(st.lists(_kinded_path, max_size=10), st.booleans(), st.one_of(st.just(ROOT), _kinded_path))
def test_ancestor_lookup_matches_scanning_every_key(keys, with_root, path):
    cf = CitationFile({key: record(str(key)) for key in keys + ([ROOT] if with_root else [])})
    try:
        expected = _resolve_by_scanning(cf, path)
    except MissingRoot:
        with pytest.raises(MissingRoot):
            resolve_from_entries(cf, path)
        return
    assert resolve_from_entries(cf, path) == expected


class TestBulkBuild:
    @pytest.mark.parametrize(
        "files, dirs",
        [
            ([("a",), ("a", "b.c")], ()),  # file, then a file below it
            ([("a", "b.c"), ("a",)], ()),  # directory, then a file in its place
            ([("a",)], [("a",)]),
            ([("a",)], [("a", "b")]),
            ([()], ()),  # the root given as a file
        ],
    )
    def test_clashes_and_wrong_kinds_are_edit_conflicts(self, files, dirs):
        with pytest.raises(EditConflict):
            TreeSnapshot.from_files(dict.fromkeys(files, ""), dirs)


class TestResolve:
    def test_node_with_default_then_explicit_citation(self):
        # A version whose only entry is the root resolves every leaf to it;
        # attaching an explicit record to the leaf changes just that answer.
        snap = tree("/f1", "/f2")
        root_rec, leaf_rec = record("root"), record("leaf")
        before = CitationFile.single(root_rec)
        assert resolve(before, snap, from_rendered("/f1")) == root_rec
        after = before.with_entry(from_rendered("/f1"), leaf_rec)
        assert resolve(after, snap, from_rendered("/f1")) == leaf_rec
        assert resolve(after, snap, from_rendered("/f2")) == root_rec

    def test_root_resolves_to_itself(self):
        cf = CitationFile.single(record("r"))
        assert resolve(cf, tree("/x"), ROOT) == record("r")

    def test_missing_path(self):
        cf = CitationFile.single(record("r"))
        with pytest.raises(PathNotInTree):
            resolve(cf, tree("/x"), from_rendered("/ghost"))

    def test_file_keys_never_cover_other_nodes(self):
        snap = tree("/a/x.c", "/a/y.c")
        cf = CitationFile(
            {ROOT: record("root"), from_rendered("/a/x.c"): record("x")}
        )
        assert resolve(cf, snap, from_rendered("/a/y.c")) == record("root")

    def test_missing_root_entry_fails_resolution(self):
        cf = CitationFile({from_rendered("/a/"): record("a")})
        with pytest.raises(MissingRoot):
            resolve(cf, tree("/b.c"), from_rendered("/b.c"))

    def test_matches_walk_oracle_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(100):
            snap = randgen.rand_tree(rng, max_nodes=30)
            cf = randgen.rand_citation_file(rng, snap)
            node = randgen.rand_node(rng, snap)
            assert resolve(cf, snap, node) == resolve_by_walking(cf, node)

    def test_locality_of_new_entries(self):
        # Adding an entry at q only changes answers inside q's subtree, and
        # only for nodes that previously inherited from above q.
        rng = random.Random(77)
        for _ in range(25):
            snap = randgen.rand_tree(rng, max_nodes=25)
            cf = randgen.rand_citation_file(rng, snap, density=0.15)
            targets = [p for p in snap.paths() if p.is_dir and p not in cf]
            if not targets:
                continue
            q = rng.choice(targets)
            new_rec = randgen.rand_record(rng)
            updated = cf.with_entry(q, new_rec)
            for node in snap.paths():
                before = resolve(cf, snap, node)
                after = resolve(updated, snap, node)
                if after != before:
                    assert node.is_within(q)
                    assert after == new_rec


class TestValidate:
    def test_minimal_file_is_clean(self):
        assert validate(CitationFile.single(record("r")), tree("/x")) == []

    def test_dangling_key(self):
        cf = CitationFile({ROOT: record("r"), from_rendered("/gone.c"): record("g")})
        issues = validate(cf, tree("/kept.c"))
        assert [(i.rule, str(i.path)) for i in issues] == [(DANGLING_KEY, "/gone.c")]

    def test_missing_root(self):
        issues = validate(CitationFile({from_rendered("/x"): record("x")}), tree("/x"))
        assert [i.rule for i in issues] == [MISSING_ROOT]

    def test_kind_mismatch(self):
        cf = CitationFile({ROOT: record("r"), from_rendered("/thing"): record("t")})
        issues = validate(cf, tree("/thing/child.c"))
        assert [i.rule for i in issues] == [KIND_MISMATCH]

    def test_totality_when_clean(self):
        rng = random.Random(5150)
        for _ in range(30):
            snap = randgen.rand_tree(rng, max_nodes=20)
            cf = randgen.rand_citation_file(rng, snap)
            assert validate(cf, snap) == []
            for node in snap.paths():
                resolve(cf, snap, node)  # must not raise


@given(st.data())
def test_citation_file_iterates_in_rendered_byte_order(data):
    names = data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4))
    entries = {ROOT: record("root")}
    snap = TreeSnapshot()
    for i, name in enumerate(names):
        path = from_rendered(f"/{name}{i}")
        entries[path] = record(str(i))
    cf = CitationFile(entries)
    keys = [str(k) for k in cf.keys()]
    assert keys == sorted(keys)
