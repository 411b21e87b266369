"""Per-path tree lookups against whole-tree oracles, and what they cost.

``WorktreeLookup`` must answer ``kind_of`` as the ``os.walk`` snapshot in
``support`` does, and ``RevisionLookup`` as a ``git ls-tree -r`` listing
does, for every node and for paths that are absent, through a file or
through a symlink. Commands that name one path must not walk the checkout.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gitcite import gitadapter
from gitcite.cli import main
from gitcite.errors import UnknownVersion
from gitcite.gitadapter import RevisionLookup, WorktreeLookup, store_citation_file
from gitcite.model import CitationFile, TreeSnapshot
from gitcite.paths import PathKind

from conftest import git, init_repo
from support import record, snapshot_worktree

_NAMES = st.sampled_from(["a", "b.c", ".git", "citation.cite"])
# A leaf is a file or one of three symlinks; a dict is a directory, maybe empty.
_LEAF = st.sampled_from(["file", "link-to-file", "link-to-dir", "broken-link"])
_NODE = st.recursive(_LEAF, lambda inner: st.dictionaries(_NAMES, inner, max_size=3), max_leaves=10)
_WORKTREE = st.dictionaries(_NAMES, _NODE, max_size=4)


def _build(directory: Path, node: dict, outside: Path) -> list[tuple[str, ...]]:
    """Create ``node`` under ``directory``; returns the segments of every entry made."""
    made = []
    for name, child in node.items():
        target = directory / name
        if isinstance(child, dict):
            target.mkdir()
            made += [(name, *sub) for sub in _build(target, child, outside)]
        elif child == "file":
            target.write_text(name)
        else:
            points_to = {"link-to-file": "file", "link-to-dir": "dir", "broken-link": "missing"}[child]
            target.symlink_to(outside / points_to)
        made.append((name,))
    return made


def _queries(made: list[tuple[str, ...]], extra: list[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """Every entry made, a name under each (through files and symlinks too:
    ``outside/dir`` holds ``inner``), and the extra paths."""
    queries = {(), *made, *extra}
    for segments in made:
        queries.update({segments + ("inner",), segments + ("a",), segments + (".git",)})
    return queries


@settings(max_examples=150, deadline=None)
@given(_WORKTREE, st.lists(st.lists(_NAMES, min_size=1, max_size=4).map(tuple), max_size=5))
def test_worktree_lookup_matches_the_walk(layout, extra):
    with tempfile.TemporaryDirectory() as scratch:
        outside, root = Path(scratch) / "outside", Path(scratch) / "wt"
        (outside / "dir").mkdir(parents=True)
        (outside / "dir" / "inner").write_text("inner")
        (outside / "file").write_text("file")
        root.mkdir()
        queries = _queries(_build(root, layout, outside), extra)
        oracle, lookup = snapshot_worktree(root), WorktreeLookup(root)
        for segments in sorted(queries):
            assert lookup.kind_of(segments) is oracle.kind_of(segments), segments
        for path in oracle.paths():
            assert lookup.contains(path)


def _tree_from_ls_tree(root: Path, rev: str) -> TreeSnapshot:
    """Oracle: the committed tree from one ``git ls-tree -r -z`` listing."""
    files = {}
    for token in git(root, "ls-tree", "-r", "-z", rev).stdout.split("\0"):
        if token:
            path_text = token.split("\t", 1)[1]
            if path_text != "citation.cite":
                files[tuple(path_text.split("/"))] = ""
    return TreeSnapshot.from_files(files)


def test_revision_lookup_matches_the_ls_tree_listing(git_repo, monkeypatch, capsys):
    root = git_repo()
    # A submodule's commit lives in the submodule's own repository, not in
    # the superproject's object store.
    other = git_repo("other")
    (other / "f").write_text("f")
    git(other, "add", "f")
    git(other, "commit", "-q", "-m", "other")
    foreign = git(other, "rev-parse", "HEAD").stdout.strip()
    for rel in ["a.c", "src/b.c", "src/deep/c.c", "src/citation.cite", "doc/x:y.md"]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(rel)
    (root / "link").symlink_to("src")  # git stores a symlink as a blob
    store_citation_file(root, CitationFile.single(record("root")))
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "first")
    head = git(root, "rev-parse", "HEAD").stdout.strip()
    git(root, "update-index", "--add", "--cacheinfo", f"160000,{foreign},vendor/sub")
    assert git(root, "cat-file", "-e", foreign, check=False).returncode != 0
    git(root, "rm", "-q", "-r", "src/deep")
    git(root, "mv", "a.c", "src/a.c")
    git(root, "commit", "-q", "-m", "second")
    revs = [head, "HEAD"]
    oracles = {rev: _tree_from_ls_tree(root, rev) for rev in revs}
    made = {p.segments for tree in oracles.values() for p in tree.paths()}
    extra = [("citation.cite",), ("nope",), ("link", "b.c"), ("a.c", "x"), ("vendor", "sub", "f")]
    queries = _queries(sorted(made), extra)
    for rev in revs:
        lookup = RevisionLookup(root, rev)
        for segments in sorted(queries):
            assert lookup.kind_of(segments) is oracles[rev].kind_of(segments), (rev, segments)
    assert RevisionLookup(root, "HEAD").kind_of(("vendor", "sub")) is PathKind.FILE
    assert RevisionLookup(root, "HEAD").kind_of(("vendor",)) is PathKind.DIRECTORY
    monkeypatch.chdir(root)
    assert main(["gen", "vendor/sub", "--version", "HEAD"]) == 0
    assert "owner-root" in capsys.readouterr().out
    for segments in [(), ("a.c",)]:
        with pytest.raises(UnknownVersion):
            RevisionLookup(root, "no-such-rev").kind_of(segments)


# --- cost guards ----------------------------------------------------------------


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory):
    """Committed checkouts of about 100 and about 5,000 files, at the same depth."""
    base = tmp_path_factory.mktemp("sizes")
    made = {}
    for name, dirs, per_dir in [("small", 10, 10), ("large", 50, 100)]:
        root = init_repo(base / name)
        for d in range(dirs):
            (root / f"d{d}").mkdir()
            for f in range(per_dir):
                (root / f"d{d}" / f"f{f}.c").write_text("x")
        store_citation_file(root, CitationFile.single(record("root")))
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "seed")
        made[name] = root
    return made


def _no_walking(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a single-path command walked the checkout")

    monkeypatch.setattr(os, "walk", refuse)
    monkeypatch.setattr(os, "scandir", refuse)


@pytest.mark.parametrize("size", ["small", "large"])
def test_single_path_commands_do_not_walk_the_checkout(checkouts, size, monkeypatch, capsys):
    monkeypatch.chdir(checkouts[size])
    _no_walking(monkeypatch)
    commands = [
        ["gen", "d1/f1.c"],
        ["add", "d1/", "--field", "owner=X"],
        ["modify", "d1", "--field", "owner=Y"],
        ["gen", "d1/f2.c"],
        ["del", "d1"],
        ["validate"],
        ["gen", "."],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert "owner-root" in capsys.readouterr().out


def test_gen_file_costs_the_same_lstats_on_both_sizes(checkouts, monkeypatch):
    real_lstat = os.lstat
    counts = {}
    for size, root in checkouts.items():
        monkeypatch.chdir(root)
        calls = []
        monkeypatch.setattr(os, "lstat", lambda *a, **kw: calls.append(a) or real_lstat(*a, **kw))
        assert main(["gen", "d3/f7.c"]) == 0
        monkeypatch.setattr(os, "lstat", real_lstat)
        counts[size] = len(calls)
    assert counts["small"] == counts["large"] > 0


@pytest.mark.parametrize("size", ["small", "large"])
def test_gen_at_a_revision_runs_one_ls_tree(checkouts, size, monkeypatch):
    monkeypatch.chdir(checkouts[size])
    _no_walking(monkeypatch)
    real_git, commands = gitadapter._git, []

    def counting_git(root, *args, **kwargs):
        commands.append(args)
        return real_git(root, *args, **kwargs)

    monkeypatch.setattr(gitadapter, "_git", counting_git)
    assert main(["gen", "d3/f7.c", "--version", "HEAD"]) == 0
    listings = [args for args in commands if "ls-tree" in args]
    assert len(listings) == 1
    assert "-r" not in listings[0]
