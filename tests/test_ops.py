from __future__ import annotations

import ast
import importlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gitcite
from gitcite import CitationFile, resolve, validate
from gitcite.errors import (
    AlreadyCited,
    InvariantBroken,
    MissingMetadata,
    NotCited,
    PathNotInTree,
    RootUndeletable,
    UnknownVersion,
)
from gitcite.ops import (
    apply_add,
    apply_delete,
    apply_modify,
    carry_keys,
    choose_left,
    merge_citation_files,
)
from gitcite.gitadapter import (
    RevisionLookup,
    citation_file_at_revision,
    default_root_citation,
    store_citation_file,
    sync_on_commit,
)
from gitcite.paths import ROOT, CanonicalPath, PathKind, from_rendered

import randgen
from conftest import git
from support import record, resolve_by_walking, tree

TREE = tree("/f1", "/f2", "/sub/a.c", "/sub/b.c")
ROOT_ONLY = CitationFile.single(record("root"))


class TestAddCite:
    def test_add_changes_resolution_of_the_target(self):
        f1 = from_rendered("/f1")
        assert resolve(ROOT_ONLY, TREE, f1) == record("root")
        cf = apply_add(ROOT_ONLY, TREE, f1, record("f1"))
        assert cf == ROOT_ONLY.with_entry(f1, record("f1"))
        assert resolve(cf, TREE, f1) == record("f1")

    def test_add_on_cited_path_is_rejected(self):
        cf = apply_add(ROOT_ONLY, TREE, from_rendered("/f1"), record("a"))
        with pytest.raises(AlreadyCited):
            apply_add(cf, TREE, from_rendered("/f1"), record("b"))

    def test_add_on_directory_covers_the_subtree(self):
        cf = apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub"))
        for leaf in ("/sub/a.c", "/sub/b.c"):
            path = from_rendered(leaf)
            assert resolve(cf, TREE, path) == record("sub")
            assert resolve_by_walking(cf, path) == record("sub")

    def test_add_requires_existing_path(self):
        with pytest.raises(PathNotInTree):
            apply_add(ROOT_ONLY, TREE, from_rendered("/ghost"), record("g"))


class TestDelCite:
    def test_root_is_undeletable(self):
        with pytest.raises(RootUndeletable):
            apply_delete(ROOT_ONLY, ROOT)

    def test_add_then_delete_restores_resolution_everywhere(self):
        before = {str(p): resolve(ROOT_ONLY, TREE, p) for p in TREE.paths()}
        sub = from_rendered("/sub/")
        cf = apply_delete(apply_add(ROOT_ONLY, TREE, sub, record("sub")), sub)
        assert cf == ROOT_ONLY
        assert {str(p): resolve(cf, TREE, p) for p in TREE.paths()} == before

    def test_nested_delete_falls_back_to_grandparent(self):
        target = from_rendered("/sub/a.c")
        cited = apply_add(apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub")), TREE, target, record("a"))
        cf = apply_delete(cited, target)
        assert resolve(cf, TREE, target) == record("sub")
        assert resolve_by_walking(cf, target) == record("sub")

    def test_delete_uncited(self):
        with pytest.raises(NotCited):
            apply_delete(ROOT_ONLY, from_rendered("/f1"))


class TestModifyCite:
    def test_same_record_is_a_resolution_no_op(self):
        assert apply_modify(ROOT_ONLY, ROOT, record("root")) == ROOT_ONLY

    def test_modify_root_changes_every_inheriting_node(self):
        cited = apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub"))
        cf = apply_modify(cited, ROOT, record("newroot"))
        for path in TREE.paths():
            assert resolve(cf, TREE, path) == resolve_by_walking(cf, path)
        assert resolve(cf, TREE, from_rendered("/f1")) == record("newroot")
        assert resolve(cf, TREE, from_rendered("/sub/a.c")) == record("sub")

    def test_modify_uncited(self):
        with pytest.raises(NotCited):
            apply_modify(ROOT_ONLY, from_rendered("/f1"), record("x"))


class TestGuards:
    def test_gen_cite_reads_any_version(self, git_repo):
        root = git_repo()
        (root / "f1").write_text("f1")
        for cf in (ROOT_ONLY, ROOT_ONLY.with_entry(from_rendered("/f1"), record("f1"))):
            store_citation_file(root, cf)
            git(root, "add", "-A")
            git(root, "commit", "-q", "-m", "step")

        def gen(rev, path):
            return resolve(citation_file_at_revision(root, rev), RevisionLookup(root, rev), from_rendered(path))

        assert gen("HEAD~1", "/f1") == record("root")
        assert gen("HEAD", "/f1") == record("f1")
        with pytest.raises(UnknownVersion):
            gen("nope", "/")
        with pytest.raises(PathNotInTree):
            gen("HEAD~1", "/ghost")

    def test_gen_cite_of_root(self):
        assert resolve(apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub")), TREE, ROOT) == record("root")

    def test_gen_cite_exhaustive_against_walk_oracle(self):
        rng = random.Random(31)
        snap = randgen.rand_tree(rng, max_nodes=50)
        cf = CitationFile.single(randgen.rand_record(rng))
        for path, rec in randgen.rand_citation_file(rng, snap).items():
            cf = apply_add(cf, snap, path, rec) if not path.is_root else cf
        for node in snap.paths():
            assert resolve(cf, snap, node) == resolve_by_walking(cf, node)


class TestStagingInvariants:
    def test_edit_lists_compose_like_their_set_denotation(self):
        f1, f2 = from_rendered("/f1"), from_rendered("/f2")
        checked = apply_add(ROOT_ONLY, TREE, f1, record("f1"))
        checked = apply_add(checked, TREE, f2, record("f2"))
        checked = apply_modify(apply_delete(checked, f1), f2, record("f2b"))
        assert checked == ROOT_ONLY.with_entry(f2, record("f2b"))

    def test_no_edit_removes_the_root(self):
        with pytest.raises(RootUndeletable):
            apply_delete(ROOT_ONLY, ROOT)
        assert carry_keys(ROOT_ONLY, [], [ROOT, from_rendered("/sub/")]) == ROOT_ONLY

    def test_every_successful_edit_validates(self):
        sub = from_rendered("/sub/")
        added = apply_add(ROOT_ONLY, TREE, sub, record("s"))
        assert validate(added, TREE) == []
        assert validate(apply_delete(added, sub), TREE) == []


@pytest.mark.parametrize("old, new", [("/a.c", "/b.c"), ("/lib/", "/vendor/")])
def test_rewrite_onto_an_existing_key_raises(old, new):
    cf = CitationFile({from_rendered(k): record(k) for k in ("/", "/a.c", "/b.c", "/lib/", "/vendor/")})
    with pytest.raises(InvariantBroken):
        carry_keys(cf, [(from_rendered(old), from_rendered(new))])


def _overlap(p: CanonicalPath, q: CanonicalPath) -> bool:
    return p.covers(q) or q.covers(p)


_path = st.tuples(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
    st.sampled_from([PathKind.FILE, PathKind.DIRECTORY]),
).map(lambda t: CanonicalPath(*t))


@given(
    st.lists(_path, max_size=10),
    st.lists(st.tuples(_path, st.lists(st.sampled_from("abcd"), min_size=1, max_size=3)), max_size=5),
)
def test_simultaneous_rewrite_matches_folding_one_pair_calls(keys, moves):
    """On chain-free rename sets the simultaneous rewrite is the sequential
    fold: same file, or both raise."""
    cf = CitationFile({ROOT: record("root"), **{key: record(str(key)) for key in keys}})
    renames: list[tuple[CanonicalPath, CanonicalPath]] = []
    for old, segments in moves:
        pair = (old, CanonicalPath(tuple(segments), old.kind))
        # Chain-free: no old path overlaps another rename's old or new path.
        if all(not _overlap(pair[0], o) and not _overlap(pair[0], n) and not _overlap(o, pair[1])
               for o, n in renames):
            renames.append(pair)
    try:
        folded = cf
        for pair in renames:
            folded = carry_keys(folded, [pair])
    except InvariantBroken:
        with pytest.raises(InvariantBroken):
            carry_keys(cf, renames)
        return
    assert carry_keys(cf, renames) == folded


@pytest.mark.parametrize(
    "a, b, c", [("/a.c", "/b.c", "/c.c"), ("/lib/", "/vendor/", "/third/")]
)
def test_a_rotation_gives_the_same_file_in_either_order(a, b, c):
    a, b, c = from_rendered(a), from_rendered(b), from_rendered(c)
    inner = a.child("x.c", PathKind.FILE) if a.is_dir else a
    cf = CitationFile({ROOT: record("root"), a: record("a"), b: record("b"), inner: record("inner")})
    forward = carry_keys(cf, [(a, b), (b, c)])
    assert forward == carry_keys(cf, [(b, c), (a, b)])
    moved_inner = inner.rebased(a, b)
    assert forward == CitationFile({ROOT: record("root"), b: record("a"), c: record("b"), moved_inner: record("inner")})


def test_a_deep_file_rename_beats_its_renamed_directory():
    """A file's own rename comes first, then the deepest renamed directory over it."""
    keys = ("/d/", "/d/e/w.c", "/d/e/x.c", "/d/y.c")
    cf = CitationFile({ROOT: record("root"), **{from_rendered(k): record(k) for k in keys}})
    renames = [(from_rendered(o), from_rendered(n)) for o, n in
               [("/d/", "/m/"), ("/d/e/", "/m/f/"), ("/d/e/x.c", "/z.c")]]
    carried = carry_keys(cf, renames)
    assert [str(k) for k in carried] == ["/", "/m/", "/m/f/w.c", "/m/y.c", "/z.c"]
    assert carried.get(from_rendered("/m/f/w.c")) == record("/d/e/w.c")


def test_prune_deleted_drops_covered_keys_and_keeps_the_root():
    cf = CitationFile({from_rendered(k): record(k) for k in ("/", "/a.c", "/a/", "/a/b/x.c", "/ab.c", "/keep/")})
    pruned = carry_keys(cf, deleted=[from_rendered("/a/"), from_rendered("/ab.c"), from_rendered("/ghost")])
    assert [str(k) for k in pruned] == ["/", "/a.c", "/keep/"]


@given(
    st.lists(_path, max_size=10),
    st.lists(_path, max_size=4, unique=True),
    st.lists(_path, max_size=4),
)
def test_a_moved_key_is_never_dropped_and_an_unmoved_one_only_when_deleted(keys, olds, deleted):
    # Every destination lies outside the keys' names, and no two share one,
    # so no two keys can land on one path.
    renames = [
        (old, CanonicalPath((f"d{i}",), PathKind.DIRECTORY) if old.is_dir else CanonicalPath(("f", str(i)), PathKind.FILE))
        for i, old in enumerate(olds)
    ]
    cf = CitationFile({ROOT: record("root"), **{key: record(str(key)) for key in keys}})
    carried = carry_keys(cf, renames, deleted)
    moved = {key for key in cf.keys() if any(old.covers(key) for old in olds)}
    kept = {key for key in cf.keys() - moved if key.is_root or not any(d.covers(key) for d in deleted)}
    origin = {record.owner: key for key, record in cf.items()}  # every key has its own record
    assert sorted(origin[record.owner] for _, record in carried.items()) == sorted(moved | kept)
    assert ROOT in kept and all(carried.get(key) == cf.get(key) for key in kept)


class TestMergeCitationFiles:
    """The three-way rule for one key, with "no entry" as a value: a side that
    kept the base's state yields to the other side."""

    A = from_rendered("/a.c")

    def merge(self, base, left, right):
        def cf(entry):
            return CitationFile({ROOT: record("root"), **({} if entry is None else {self.A: record(entry)})})

        merged, conflicts = merge_citation_files(cf(base), cf(left), cf(right), choose_left)
        assert conflicts == []
        return merged.get(self.A)

    @pytest.mark.parametrize("left, right", [(None, "base"), ("base", None)], ids=["left", "right"])
    def test_a_deletion_on_one_side_survives(self, left, right):
        assert self.merge("base", left, right) is None

    @pytest.mark.parametrize("left, right", [(None, "new"), ("new", None)], ids=["left-deletes", "right-deletes"])
    def test_a_modify_beats_a_delete(self, left, right):
        assert self.merge("base", left, right) == record("new")

    @pytest.mark.parametrize("base", [None, "base"], ids=["added", "modified"])
    def test_equal_changes_on_both_sides_merge_silently(self, base):
        assert self.merge(base, "new", "new") == record("new")

    def test_a_deletion_on_both_sides(self):
        assert self.merge("base", None, None) is None


def test_sync_builds_a_bounded_number_of_citation_files(tmp_path, monkeypatch):
    # Each CitationFile construction sorts every key, so a rebuild per rename
    # would make commit-time sync renames x keys.
    cites = {from_rendered(f"/pkg/f{i:03d}.c"): record(str(i)) for i in range(0, 500, 3)}
    store_citation_file(tmp_path, CitationFile({ROOT: record("root"), **cites}))
    renames = [(from_rendered(f"/pkg/f{i:03d}.c"), from_rendered(f"/lib/f{i:03d}.c")) for i in range(500)]
    built = []
    init = CitationFile.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CitationFile, "__init__", counting)
    synced = sync_on_commit(tmp_path, renames, [from_rendered("/pkg/")])
    assert len(built) <= 4
    assert [str(k) for k in synced][:2] == ["/", "/lib/f000.c"]
    assert len(synced) == len(cites) + 1


def _imported_modules(source: Path) -> set[str]:
    """Every module ``source`` imports, a ``from`` import's names included."""
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(filter(None, ("gitcite", node.module)))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_the_package_ships_no_store():
    """The reference model is a test oracle (``tests/identity_model.py``), so
    no command can load it."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("gitcite.store")


def test_the_package_imports_nothing_from_the_tests():
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        imported = {name.split(".")[0] for name in _imported_modules(source)}
        assert not imported & {"identity_model", "support", "conftest", "randgen"}, source.name


def _words(source: Path) -> set[str]:
    """Every name ``source`` uses, binds, imports or reads as an attribute,
    and every word of its string constants, docstrings included."""
    words = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
        for field in ("id", "attr", "name"):  # a name, an attribute, an import or a definition
            if isinstance(getattr(node, field, None), str):
                words.add(getattr(node, field))
    return words


def test_only_the_model_names_the_tree_snapshot():
    """Every other module takes the ``paths.Tree`` interface, so the
    in-memory snapshot can leave the package without touching them."""
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        assert ("TreeSnapshot" in _words(source)) == (source.name == "model.py"), source.name


def test_the_package_reads_no_environment_and_asks_git_for_no_top():
    """The citation file is ``citation.cite`` at the top ``cli.find_root``
    walks to, so no environment variable and no ``rev-parse
    --show-toplevel`` can choose another."""
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        assert not {"os.environ", "os.environb", "os.getenv"} & _imported_modules(source), source.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                assert node.attr not in ("environ", "environb", "getenv"), source.name
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "--show-toplevel" not in node.value, source.name


def test_the_identity_model_imports_nothing_from_ops_or_the_adapter():
    """The oracle writes the paper's rules again, so a bug in ops or the
    adapter cannot agree with itself. A name imported from ``gitcite``
    itself must not be defined in either module."""
    forbidden = ("gitcite.ops", "gitcite.gitadapter")
    source = Path(__file__).with_name("identity_model.py")
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith(forbidden) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith(forbidden)
            module = importlib.import_module(node.module)
            for alias in node.names:
                defined_in = getattr(getattr(module, alias.name), "__module__", node.module)
                assert not defined_in.startswith(forbidden), alias.name


class TestDefaultRootCitation:
    """The root citation ``gitcite init`` drafts from a real repository."""

    def test_empty_contributors_fall_back_to_owner(self, git_repo):
        root = git_repo(origin="git@example.com:xavier/rig.git")
        rec = default_root_citation(root)  # no commit yet
        assert rec.author_list == ("xavier",)
        assert (rec.owner, rec.repo_name, rec.locator) == ("xavier", "rig", "git@example.com:xavier/rig.git")
        assert (rec.version_id, rec.date, rec.extras) == ("", "", {})

    def test_contributor_order_is_preserved(self, git_repo):
        root = git_repo()
        for n, author in enumerate(["c2", "c1", "c2", "c3"]):
            git(root, "commit", "-q", "--allow-empty", "-m", str(n), "--author", f"{author} <{author}@example.com>")
        assert default_root_citation(root).author_list == ("c2", "c1", "c3")

    def test_missing_metadata(self, git_repo, monkeypatch):
        root = git_repo(origin="no-owner-here")
        git(root, "config", "--unset", "user.name")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", "/dev/null")
        monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        with pytest.raises(MissingMetadata, match="owner"):
            default_root_citation(root)
