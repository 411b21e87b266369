from __future__ import annotations

import ast
import gc
import importlib
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gitcite
from gitcite import CitationFile, cli, gitadapter, resolve, validate
from gitcite.errors import GitCiteError, PathNotInTree
from gitcite.fileformat import parse, serialize
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
    default_root_citation,
    sync_on_commit,
)
from gitcite.paths import ROOT, CanonicalPath, PathKind, from_rendered

import randgen
from conftest import git, seed
from identity_model import covers
from support import child, record, resolve_by_walking, store_citation_file, tree, tree_paths

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
        with pytest.raises(GitCiteError, match="^/f1 already has a citation; modify it instead$"):
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
        with pytest.raises(GitCiteError, match="^the root citation cannot be deleted$"):
            apply_delete(ROOT_ONLY, ROOT)

    def test_add_then_delete_restores_resolution_everywhere(self):
        before = {str(p): resolve(ROOT_ONLY, TREE, p) for p in tree_paths(TREE)}
        sub = from_rendered("/sub/")
        cf = apply_delete(apply_add(ROOT_ONLY, TREE, sub, record("sub")), sub)
        assert cf == ROOT_ONLY
        assert {str(p): resolve(cf, TREE, p) for p in tree_paths(TREE)} == before

    def test_nested_delete_falls_back_to_grandparent(self):
        target = from_rendered("/sub/a.c")
        cited = apply_add(apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub")), TREE, target, record("a"))
        cf = apply_delete(cited, target)
        assert resolve(cf, TREE, target) == record("sub")
        assert resolve_by_walking(cf, target) == record("sub")

    def test_delete_uncited(self):
        with pytest.raises(GitCiteError, match="^/f1 has no citation$"):
            apply_delete(ROOT_ONLY, from_rendered("/f1"))


class TestModifyCite:
    def test_same_record_is_a_resolution_no_op(self):
        assert apply_modify(ROOT_ONLY, ROOT, record("root")) == ROOT_ONLY

    def test_modify_root_changes_every_inheriting_node(self):
        cited = apply_add(ROOT_ONLY, TREE, from_rendered("/sub/"), record("sub"))
        cf = apply_modify(cited, ROOT, record("newroot"))
        for path in tree_paths(TREE):
            assert resolve(cf, TREE, path) == resolve_by_walking(cf, path)
        assert resolve(cf, TREE, from_rendered("/f1")) == record("newroot")
        assert resolve(cf, TREE, from_rendered("/sub/a.c")) == record("sub")

    def test_modify_uncited(self):
        with pytest.raises(GitCiteError, match="^/f1 has no citation$"):
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
            lookup = RevisionLookup(root, rev)
            return resolve(lookup.citation_file(), lookup, from_rendered(path))

        assert gen("HEAD~1", "/f1") == record("root")
        assert gen("HEAD", "/f1") == record("f1")
        with pytest.raises(GitCiteError, match="^unknown revision 'nope'$"):
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
        for node in tree_paths(snap):
            assert resolve(cf, snap, node) == resolve_by_walking(cf, node)


class TestStagingInvariants:
    def test_edit_lists_compose_like_their_set_denotation(self):
        f1, f2 = from_rendered("/f1"), from_rendered("/f2")
        checked = apply_add(ROOT_ONLY, TREE, f1, record("f1"))
        checked = apply_add(checked, TREE, f2, record("f2"))
        checked = apply_modify(apply_delete(checked, f1), f2, record("f2b"))
        assert checked == ROOT_ONLY.with_entry(f2, record("f2b"))

    def test_no_edit_removes_the_root(self):
        with pytest.raises(GitCiteError, match="^the root citation cannot be deleted$"):
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
    with pytest.raises(GitCiteError, match=f"^key rewrite puts two entries at {new}$"):
        carry_keys(cf, [(from_rendered(old), from_rendered(new))])


def _overlap(p: CanonicalPath, q: CanonicalPath) -> bool:
    return covers(p, q) or covers(q, p)


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
    except GitCiteError:
        with pytest.raises(GitCiteError, match="^key rewrite puts two entries at "):
            carry_keys(cf, renames)
        return
    assert carry_keys(cf, renames) == folded


@pytest.mark.parametrize(
    "a, b, c", [("/a.c", "/b.c", "/c.c"), ("/lib/", "/vendor/", "/third/")]
)
def test_a_rotation_gives_the_same_file_in_either_order(a, b, c):
    a, b, c = from_rendered(a), from_rendered(b), from_rendered(c)
    inner = child(a, "x.c", PathKind.FILE) if a.is_dir else a
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
    assert {str(k) for k in carried} == {"/", "/m/", "/m/f/w.c", "/m/y.c", "/z.c"}
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
    moved = {key for key in cf.keys() if any(covers(old, key) for old in olds)}
    kept = {key for key in cf.keys() - moved if key.is_root or not any(covers(d, key) for d in deleted)}
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
    # Each CitationFile construction copies every key, so a rebuild per rename
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


def test_a_merge_renders_each_key_at_most_twice(monkeypatch):
    # Sorting the key union by comparing paths would render both paths at
    # every comparison: about 2 n log n renders instead of n.
    def cites(first: int) -> CitationFile:
        return CitationFile({ROOT: record("root"), **{
            from_rendered(f"/pkg/d{i % 7}/f{i:03d}.c"): record(str(i)) for i in range(first, first + 200)
        }})

    base, left, right = cites(0), cites(50), cites(100)
    renders = []
    render = CanonicalPath.render

    def counting(self):
        renders.append(1)
        return render(self)

    monkeypatch.setattr(CanonicalPath, "render", counting)
    merged, conflicts = merge_citation_files(base, left, right)
    distinct = len(base.keys() | left.keys() | right.keys())
    assert len(renders) <= 2 * distinct
    assert [str(key) for key in merged] == sorted(str(key) for key in merged) and not conflicts


def test_only_serialize_renders_the_keys(monkeypatch):
    # Parsing and single-key edits keep the order they are given; writing
    # sorts by the rendered keys, rendering each once.
    cf = CitationFile({ROOT: record("root"), **{
        from_rendered(f"/pkg/d{i % 7}/f{i:03d}.c"): record(str(i)) for i in range(199)
    }})
    text = serialize(cf)
    renders = []
    render = CanonicalPath.render

    def counting(self):
        renders.append(1)
        return render(self)

    monkeypatch.setattr(CanonicalPath, "render", counting)
    parsed = parse(text)
    assert (len(parsed), len(renders)) == (200, 0)
    edited = parsed.with_entry(from_rendered("/new.c"), record("new")).without(from_rendered("/pkg/d0/f000.c"))
    assert len(renders) == 0
    serialize(edited)
    assert len(renders) == len(edited) == 200


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


def test_only_the_command_line_reads_the_cwd_and_the_path_grammar_uses_no_os():
    """``paths.canonicalize`` is the one parser of a typed path: string work
    on segments, starting from the cwd segments that ``cli`` reads."""
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        imported = _imported_modules(source)
        if source.name == "paths.py":
            assert not {name.split(".")[0] for name in imported} & {"os", "posixpath", "ntpath", "pathlib"}
        reads_cwd = bool({"os.getcwd", "os.getcwdb"} & imported) or any(
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
            and node.attr in ("getcwd", "getcwdb")
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        )
        assert reads_cwd == (source.name == "cli.py"), source.name


def test_one_function_asks_git_for_renames_and_one_splits_its_diffs():
    """Commit-time rules are a function of two trees, ``_tree_changes``, so
    a commit, a repair of past commits and a merge share them: it makes the
    package's only rename-detecting (``-M``) git call. Every ``--raw`` diff
    git prints is split into records by ``_raw_diff`` alone."""
    flags, asks_renames, reads_raw = [], [], []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        module = ast.parse(source.read_text(encoding="utf-8"))
        flags += [
            node for node in ast.walk(module)
            if isinstance(node, ast.Constant) and str(node.value).startswith(("-M", "--find-renames"))
        ]
        for func in ast.walk(module):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_git":
                    asks_renames += [func.name for arg in call.args if arg in flags]
                    reads_raw += [func] if any(getattr(arg, "value", None) == "--raw" for arg in call.args) else []
    assert len(flags) == 1 and asks_renames == ["_tree_changes"]
    assert reads_raw
    for func in reads_raw:
        called = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        methods = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
        assert "_raw_diff" in called and not methods & {"split", "rsplit", "partition", "rpartition"}, func.name


def _git_command(call: ast.Call) -> str:
    """The git command a ``_git`` call runs, found as ``_git`` finds it: the
    first constant argument past the root and git's own options."""
    words = [arg.value for arg in call.args[1:] if isinstance(arg, ast.Constant)]
    return next((word for word in words if word[:1] != "-" and "=" not in word), "")


def test_only_git_reads_an_exit_code_and_exit_1_only_where_it_is_an_answer():
    """``gitadapter._git`` alone decides what git's exit code means. It
    returns exit 1 only from the commands whose 1 means "no such thing" or
    "no", and raises for any other failure; so no call passes ``check=``, and
    a caller reads ``returncode`` only from one of those commands."""
    answers = {"config", "merge-base", "merge-tree", "verify-commit"}
    read = []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or func.name == "_git":
                continue
            calls = [
                node for node in ast.walk(func) if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_git"
            ]
            assert not [kw for call in calls for kw in call.keywords if kw.arg == "check"], (source.name, func.name)
            bound = {  # each name bound to a _git call's result, and that call's command
                node.targets[0].id: _git_command(node.value) for node in ast.walk(func)
                if isinstance(node, ast.Assign) and node.value in calls and isinstance(node.targets[0], ast.Name)
            }
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "returncode":
                    of = node.value
                    command = _git_command(of) if of in calls else bound.get(getattr(of, "id", None))
                    assert command in answers, (source.name, func.name, ast.unparse(node))
                    read.append(command)
    assert sorted(read) == ["merge-base", "verify-commit"]
    assert gitadapter._ANSWERS_ON_1 == answers


def test_one_function_reads_git_s_objects():
    """``gitadapter._objects`` is the one reader of git's objects: it alone
    passes ``cat-file`` to ``_git``, and so every revision a command reads,
    a branch, ``FETCH_HEAD`` or ``HEAD`` at commit time, is resolved by it.
    No ``rev-parse`` is left to resolve one another way."""
    readers = []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        module = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "rev-parse" not in node.value, source.name
        readers += [
            func.name for func in ast.walk(module) if isinstance(func, ast.FunctionDef)
            for call in ast.walk(func)
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_git"
            and _git_command(call) == "cat-file"
        ]
    assert readers == ["_objects"]


def test_trees_are_read_as_objects_and_written_by_hash_object():
    """A tree object is read through ``_objects`` and parsed by
    ``_tree_entries`` alone, and the one tree gitcite builds is written by
    ``hash-object``: no ``_git`` call runs ``mktree``, and ``ls-tree`` runs
    only with ``-r``, to list every file under a directory."""
    commands = []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        for call in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_git":
                words = [arg.value for arg in call.args if isinstance(arg, ast.Constant)]
                commands.append(_git_command(call))
                assert commands[-1] != "mktree", (source.name, call.lineno)
                assert commands[-1] != "ls-tree" or "-r" in words, (source.name, call.lineno)
    assert "ls-tree" in commands and "hash-object" in commands


def test_no_git_call_passes_a_pathspec():
    """Git is asked about revisions by object name only (``<tree>:<dir>/``),
    which git never reads as a pathspec, so a user's ``GIT_*_PATHSPECS``
    changes nothing. No module that calls ``_git`` holds ``--``, which starts
    the paths, or a flag that only a pathspec needs, even in an argument
    tuple spliced into a call."""
    pathspec_words = {"--", "--literal-pathspecs", "--full-tree"}
    callers = 0
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        module = ast.parse(source.read_text(encoding="utf-8"))
        if not any(isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_git" for node in ast.walk(module)):
            continue
        callers += 1
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in pathspec_words, (source.name, node.lineno, node.value)
    assert callers


def test_one_function_reads_edits_and_writes_the_citation_file():
    """``update_citation_file`` is the one read-edit-write, under the writer
    lock. The lock file holds the new bytes: its ``commit``, which
    ``update_citation_file`` and ``create_citation_file`` alone call, makes
    the one ``os.replace``, and only ``init``, which creates the file, calls
    ``create_citation_file``. The lock file's name is built in one function,
    so every writer takes the same lock."""
    replaces, commits, creates, lock_names = [], [], [], set()
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        module = ast.parse(source.read_text(encoding="utf-8"))
        for func in ast.walk(module):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "replace" and getattr(node.value, "id", "") == "os":
                    replaces.append(func.name)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "commit":
                    commits.append(func.name)
                if isinstance(node, ast.Call) and "create_citation_file" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    creates.append(func.name)
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.endswith(".lock"):
                    lock_names.add(func.name)
    assert replaces == ["commit"]
    assert sorted(commits) == ["create_citation_file", "update_citation_file"]
    assert creates == ["cmd_init"]
    assert len(lock_names) == 1


def test_one_encoder_makes_and_one_decoder_reads_the_citation_file():
    """``fileformat.serialize`` has one caller, the encoder, and
    ``fileformat.parse`` one, the decoder, so every version of the file a
    command writes (the worktree's, a merge's blob) and every one it reads
    (the worktree's, a revision's, a URL's) is made or read by the same code.
    No ``open`` in the package reads or writes text: the file is compared as bytes."""
    callers: dict[str, list[str]] = {"serialize": [], "parse": []}
    modes = []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in callers and getattr(getattr(call.func, "value", None), "id", "fileformat") == "fileformat":
                    callers[name].append(func.name)
                if name == "open" and isinstance(call.func, ast.Name):
                    mode = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
                    modes.append(mode[0].value if mode and isinstance(mode[0], ast.Constant) else "r")
    assert callers == {"serialize": ["encode_citation_file"], "parse": ["decode_citation_file"]}
    assert modes and all("b" in mode for mode in modes), modes


def test_copy_reads_its_source_from_git_alone():
    """A copy writes what git holds at the source's ``HEAD``, through
    ``read-tree``: no module walks or copies a directory (``shutil``) or
    makes a scratch checkout (``tempfile``), and only ``run_copy`` hands
    ``read-tree`` to git."""
    reads_trees = []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        assert not {"shutil", "tempfile"} & {name.split(".")[0] for name in _imported_modules(source)}, source.name
        for top in ast.parse(source.read_text(encoding="utf-8")).body:  # a function, or a class and its methods
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                reads_trees += [
                    func.name for call in ast.walk(func)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_git"
                    and any(getattr(arg, "value", None) == "read-tree" for arg in call.args)
                ]
    assert reads_trees == ["run_copy"]


def _references(tree: ast.AST) -> Counter:
    """How often each name is used in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_in_the_package_has_a_user():
    """The package holds only what runs: every module-level function and
    class, and every method but a dunder, is used outside its own
    definition in ``src/gitcite``, exported in ``gitcite.__all__``, or named
    by the benchmark, whose tracer looks the tree builders up by string.
    Test-only helpers live in ``tests/``."""
    modules = [ast.parse(source.read_text(encoding="utf-8")) for source in Path(gitcite.__file__).parent.glob("*.py")]
    used = sum(map(_references, modules), Counter())
    named = set(gitcite.__all__)  # exported, or named by the benchmark as code or as a string
    for source in Path(__file__).parents[1].joinpath("perfbench").glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        named |= set(_references(tree)) | {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    definitions = []
    for module in modules:
        for top in module.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                definitions.append(top)
            if isinstance(top, ast.ClassDef):
                definitions += [
                    f for f in top.body if isinstance(f, ast.FunctionDef) and not re.fullmatch("__.*__", f.name)
                ]
    unused = [d.name for d in definitions if used[d.name] == _references(d)[d.name] and d.name not in named]
    assert unused == []


def test_each_error_class_is_caught_by_name_or_builds_its_message():
    """``errors.py``'s rule: beside ``GitCiteError`` and ``IoFailure``,
    which decide the exit code, a class exists only where the package catches
    it by name, in an ``except`` clause or a tuple one names, or where its
    own ``__init__`` builds the one message of several raise sites."""
    caught = set()
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        module = ast.parse(source.read_text(encoding="utf-8"))
        tuples = {  # each module-level name bound to a tuple, such as cli._ENV_ERRORS
            node.targets[0].id: node.value.elts for node in module.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            and isinstance(node.targets[0], ast.Name)
        }
        for handler in ast.walk(module):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                kinds += [kind for name in kinds if isinstance(name, ast.Name) for kind in tuples.get(name.id, [])]
                caught |= {kind.id for kind in kinds if isinstance(kind, ast.Name)}
    errors = ast.parse(Path(gitcite.__file__).with_name("errors.py").read_text(encoding="utf-8"))
    for cls in errors.body:
        if isinstance(cls, ast.ClassDef) and cls.name not in ("GitCiteError", "IoFailure"):
            builds = any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in cls.body)
            assert cls.name in caught or builds, cls.name


def test_main_in_process_leaves_the_collector_as_it_was(git_repo, monkeypatch):
    """Only the process entry point ``cli.run`` freezes the heap, so the tests
    and the traced benchmark, which call ``main`` in-process, keep a normal
    collector, and a leaked file still warns there."""
    root = git_repo()
    seed(root, {"a.c": "a"}, {"/gone.c": "gone"})
    monkeypatch.chdir(root)
    before = (gc.get_freeze_count(), gc.isenabled())
    assert [cli.main(argv) for argv in (["gen", "a.c"], ["validate"], ["nope"])] == [0, 1, 2]
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_only_run_freezes_the_heap_and_the_main_block_calls_only_run():
    freezers, main_blocks = [], []
    for source in Path(gitcite.__file__).parent.glob("*.py"):
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            name = f"{source.stem}.{getattr(top, 'name', type(top).__name__)}"
            if any(getattr(node, "attr", getattr(node, "id", None)) == "freeze" for node in ast.walk(top)):
                freezers.append(name)
            if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'":
                main_blocks.append((name, ast.unparse(top.body)))
    assert freezers == ["cli.run"]
    assert main_blocks == [("cli.If", "run()")]


def test_the_installed_script_is_the_process_entry_point():
    # Read as text: Python 3.10 has no tomllib.
    text = Path(__file__).parents[1].joinpath("pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^gitcite\s*=\s*"([^"]*)"', text, re.M) == ["gitcite.cli:run"]


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
        with pytest.raises(GitCiteError, match="^owner is required for the default citation: set an origin remote or user.name$"):
            default_root_citation(root)
