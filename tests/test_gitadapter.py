from __future__ import annotations

import http.server
import json
import os
import threading
from pathlib import Path

import pytest

from gitcite import CitationFile, gitadapter, resolve
from gitcite.cli import main
from gitcite.errors import (
    FileMissing,
    HttpStatus,
    InvariantBroken,
    IoFailure,
    MalformedDocument,
    NetworkFailure,
    UnknownVersion,
)
from gitcite.fileformat import serialize
from gitcite.gitadapter import (
    RevisionLookup,
    WorktreeLookup,
    citation_file_at_revision,
    default_root_citation,
    fetch_remote_citation_file,
    load_citation_file,
    run_merge,
    staged_changes,
    store_citation_file,
    sync_on_commit,
)
from gitcite.ops import choose_left, choose_right, merge_citation_files
from gitcite.paths import ROOT, PathKind, from_rendered

from conftest import git, init_repo
from identity_model import Model, citation_file
from support import record, snapshot_worktree


def seed(root: Path, files: dict[str, str], cites: dict[str, str]) -> CitationFile:
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    cf = CitationFile(
        {ROOT: record("root"), **{from_rendered(k): record(tag) for k, tag in cites.items()}}
    )
    store_citation_file(root, cf)
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "seed")
    return cf


def _source(tag: str) -> str:
    """A file that shares most of its lines with every other one. Git never
    splits a modification of a file under 400 bytes into a rename source."""
    header = "".join(f"#include <common{i}.h>\n" for i in range(30))
    return header + "".join(f"{tag} line {i}\n" for i in range(12))


def _recorded_git_calls(monkeypatch) -> list:
    """The arguments of every git call the adapter makes from now on."""
    calls = []
    real_git = gitadapter._git

    def counted(at, *args, **kwargs):
        calls.append(args)
        return real_git(at, *args, **kwargs)

    monkeypatch.setattr(gitadapter, "_git", counted)
    return calls


class TestLoadStore:
    def test_store_then_load_is_identity(self, tmp_path):
        cf = CitationFile.single(record("r"))
        store_citation_file(tmp_path, cf)
        assert load_citation_file(tmp_path) == cf

    def test_store_twice_gives_identical_bytes(self, tmp_path):
        cf = CitationFile.single(record("r"))
        store_citation_file(tmp_path, cf)
        first = (tmp_path / "citation.cite").read_bytes()
        store_citation_file(tmp_path, cf)
        assert (tmp_path / "citation.cite").read_bytes() == first

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissing):
            load_citation_file(tmp_path)

    def test_malformed_file(self, tmp_path):
        (tmp_path / "citation.cite").write_text("{broken")
        with pytest.raises(MalformedDocument):
            load_citation_file(tmp_path)

    def test_unwritable_target_is_an_io_failure(self, tmp_path):
        from gitcite.errors import IoFailure

        (tmp_path / "citation.cite").mkdir()  # a directory blocks the write
        with pytest.raises(IoFailure):
            store_citation_file(tmp_path, CitationFile.single(record("r")))

    def test_hand_edited_file_warns_but_loads(self, tmp_path, monkeypatch, capsys):
        init_repo(tmp_path)
        cf = CitationFile.single(record("r"))
        store_citation_file(tmp_path, cf)
        text = (tmp_path / "citation.cite").read_text()
        (tmp_path / "citation.cite").write_text(text.replace("\n", "\n "))
        assert load_citation_file(tmp_path) == cf
        monkeypatch.chdir(tmp_path)
        assert main(["validate"]) == 0
        err = capsys.readouterr().err
        assert err == f"{tmp_path / 'citation.cite'} is not in canonical form; was it edited by hand?\n"


class TestSyncOnCommit:
    def test_directory_rename_rewrites_by_prefix_like_the_reference(self, tmp_path):
        files = {"lib/a.c": "a", "lib/sub/b.c": "b", "other.c": "o"}
        cites = {"/lib/": "lib", "/lib/sub/b.c": "b"}
        store_citation_file(tmp_path, CitationFile(
            {ROOT: record("root"), **{from_rendered(k): record(t) for k, t in cites.items()}}
        ))
        synced = sync_on_commit(
            tmp_path,
            rename_map=[(from_rendered("/lib/"), from_rendered("/vendor/"))],
            deleted=[],
        )
        reference = Model(record("root"))
        for rel, content in files.items():
            reference.write(from_rendered("/" + rel), content)
        for k, t in cites.items():
            reference.cite(from_rendered(k), record(t))
        reference.move(from_rendered("/lib/"), from_rendered("/vendor/"))
        reference.commit()
        expected = citation_file(reference.work)
        assert serialize(synced) == serialize(expected)
        assert load_citation_file(tmp_path) == expected

    def test_empty_change_lists_leave_the_bytes_alone(self, tmp_path):
        store_citation_file(tmp_path, CitationFile.single(record("r")))
        before = (tmp_path / "citation.cite").read_bytes()
        sync_on_commit(tmp_path, [], [])
        assert (tmp_path / "citation.cite").read_bytes() == before

    def test_rename_onto_a_cited_key_raises_and_leaves_the_file(self, tmp_path):
        store_citation_file(tmp_path, CitationFile(
            {ROOT: record("root"), from_rendered("/a.c"): record("a"), from_rendered("/b.c"): record("b")}
        ))
        before = (tmp_path / "citation.cite").read_bytes()
        with pytest.raises(InvariantBroken):
            sync_on_commit(tmp_path, [(from_rendered("/a.c"), from_rendered("/b.c"))], [])
        assert (tmp_path / "citation.cite").read_bytes() == before

    def test_deleting_the_only_cited_file_leaves_the_root(self, tmp_path):
        store_citation_file(tmp_path, CitationFile(
            {ROOT: record("root"), from_rendered("/a.c"): record("a")}
        ))
        synced = sync_on_commit(tmp_path, [], [from_rendered("/a.c")])
        assert [str(k) for k in synced.keys()] == ["/"]


class TestStagedChanges:
    def test_reports_renames_and_deletes(self, git_repo):
        root = git_repo()
        seed(root, {"keep.c": "k", "old.c": "o", "gone.c": "g"}, {})
        git(root, "mv", "old.c", "new.c")
        git(root, "rm", "-q", "gone.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/old.c", "/new.c")]
        assert [str(d) for d in deleted] == ["/gone.c"]

    def test_infers_a_complete_directory_move(self, git_repo):
        root = git_repo()
        seed(root, {"pkg/a.c": "a", "pkg/deep/b.c": "b", "other.c": "o"}, {})
        git(root, "mv", "pkg", "moved")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [
            ("/pkg/", "/moved/"),
            ("/pkg/a.c", "/moved/a.c"),
            ("/pkg/deep/b.c", "/moved/deep/b.c"),
        ]
        assert [str(d) for d in deleted] == ["/pkg/", "/pkg/deep/"]

    def test_a_sync_lists_no_tree(self, git_repo, monkeypatch):
        # Nothing staged: one rev-parse for HEAD's tree and one write-tree
        # for the index's, which are equal. A directory moved to a new name
        # adds the diffs, and still nothing lists the index or a tree.
        root = git_repo()
        seed(root, {"pkg/a.c": "a", "pkg/deep/b.c": "b", "other.c": "o"}, {})
        calls = _recorded_git_calls(monkeypatch)
        assert staged_changes(root) == ([], [])
        assert len(calls) <= 2, calls
        assert all({"ls-files", "ls-tree", "diff"}.isdisjoint(args) for args in calls), calls
        calls.clear()
        git(root, "mv", "pkg", "moved")
        renames, _ = staged_changes(root)
        assert (str(renames[0][0]), str(renames[0][1])) == ("/pkg/", "/moved/")
        assert all({"ls-files", "ls-tree"}.isdisjoint(args) for args in calls), calls

    @pytest.mark.parametrize(
        "first, renamed_b, deleted",
        [
            (("rm", "-r", "-q", "b"), [], ["/b/y.c", "/b/x.c", "/a/"]),
            (("mv", "b", "d"), [("/b/x.c", "/d/x.c"), ("/b/y.c", "/d/y.c")], ["/a/"]),
        ],
        ids=["replace", "rotate"],
    )
    def test_a_directory_moves_onto_one_head_had(self, git_repo, first, renamed_b, deleted):
        root = git_repo()
        seed(root, {"a/x.c": _source("alpha"), "b/x.c": _source("beta"), "b/y.c": _source("beta-y")}, {})
        git(root, *first)
        git(root, "mv", "a", "b")
        renames, gone = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a/", "/b/"), ("/a/x.c", "/b/x.c"), *renamed_b]
        assert [str(d) for d in gone] == deleted

    @pytest.mark.parametrize("first", [("rm", "-r", "-q", "b"), ("mv", "b", "d")], ids=["replace", "rotate"])
    def test_a_directory_move_onto_a_cited_directory_still_raises(self, git_repo, first):
        root = git_repo()
        seed(root, {"a/x.c": _source("alpha"), "b/x.c": _source("beta")}, {"/a/": "a", "/b/": "b"})
        git(root, *first)
        git(root, "mv", "a", "b")
        before = (root / "citation.cite").read_bytes()
        with pytest.raises(InvariantBroken):
            sync_on_commit(root, *staged_changes(root))
        assert (root / "citation.cite").read_bytes() == before

    @pytest.mark.parametrize("name, sibling", [("b*", "bx"), (":b", "b")])
    def test_a_destination_is_matched_literally(self, git_repo, name, sibling):
        # Matched as a pattern, the destination's name would take in the
        # sibling, whose file is no rename, and turn the directory move down.
        root = git_repo()
        seed(root, {"a/x.c": _source("alpha"), f"{name}/x.c": _source("dest"), f"{sibling}/y.c": _source("other")}, {})
        git(root, "--literal-pathspecs", "rm", "-r", "-q", name)
        git(root, "--literal-pathspecs", "mv", "a", name)
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a/", f"/{name}/"), ("/a/x.c", f"/{name}/x.c")]
        assert [str(d) for d in deleted] == [f"/{name}/x.c", "/a/"]

    def test_a_file_pairs_with_the_source_git_diff_shows(self, git_repo):
        # Both deleted files are equally similar to the new one. Directories
        # among the rename candidates (diff -t) tip git's pick to the other.
        root = git_repo()
        seed(root, {"b/y/z/f1.c": _source("b/y/z/f1.c"), "b/y/z/f2.c": _source("b/y/z/f2.c")}, {})
        git(root, "rm", "-r", "-q", "b")
        (root / "a" / "n").mkdir(parents=True)
        (root / "a" / "n" / "new.c").write_text(_source("new"))
        git(root, "add", "-A")
        shown = git(root, "diff", "--cached", "-B1%/1%", "-M", "--diff-filter=R", "--name-status", "-z").stdout
        _, old, new, _ = shown.split("\0")
        renames, _ = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [(f"/{old}", f"/{new}")]

    def test_an_intent_to_add_entry_is_not_a_staged_file(self, git_repo):
        # write-tree leaves the entry out, as the commit does, so it no
        # longer turns the directory move down.
        root = git_repo()
        seed(root, {"a/x.c": _source("alpha")}, {"/a/": "a"})
        git(root, "mv", "a", "b")
        (root / "b" / "new.c").write_text("new\n")
        git(root, "add", "-N", "b/new.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a/", "/b/"), ("/a/x.c", "/b/x.c")]
        assert [str(d) for d in deleted] == ["/a/"]

    def test_an_unmerged_index_is_an_io_failure(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": "base\n"}, {"/a.c": "a"})
        git(root, "checkout", "-q", "-b", "side")
        (root / "a.c").write_text("side\n")
        git(root, "commit", "-q", "-am", "side")
        git(root, "checkout", "-q", "main")
        (root / "a.c").write_text("main\n")
        git(root, "commit", "-q", "-am", "main")
        assert git(root, "merge", "-q", "side", check=False).returncode != 0
        before = (root / "citation.cite").read_bytes()
        with pytest.raises(IoFailure):
            sync_on_commit(root, *staged_changes(root))
        assert (root / "citation.cite").read_bytes() == before

    def test_partial_moves_stay_file_level(self, git_repo):
        root = git_repo()
        seed(root, {"pkg/a.c": "a", "pkg/b.c": "b"}, {})
        git(root, "mv", "pkg/a.c", "a-moved.c")
        renames, _ = staged_changes(root)
        rendered = [(str(a), str(b)) for a, b in renames]
        assert rendered == [("/pkg/a.c", "/a-moved.c")]

    def test_moving_files_into_an_existing_directory_is_no_directory_move(self, git_repo):
        root = git_repo()
        seed(root, {"alpha/y.c": "y", "zeta/x.c": "x"}, {"/alpha/": "A", "/zeta/": "Z"})
        git(root, "mv", "zeta/x.c", "alpha/x.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/zeta/x.c", "/alpha/x.c")]
        assert [str(d) for d in deleted] == ["/zeta/"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced.keys()] == ["/", "/alpha/"]
        assert resolve(synced, snapshot_worktree(root), from_rendered("/alpha/y.c")) == record("A")

    def test_a_swap_of_two_cited_files_moves_both_records(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "c.c": _source("gamma")}, {"/a.c": "a", "/c.c": "c"})
        git(root, "mv", "a.c", "b.c")
        git(root, "mv", "c.c", "a.c")
        renames, deleted = staged_changes(root)
        assert sorted((str(a), str(b)) for a, b in renames) == [("/a.c", "/b.c"), ("/c.c", "/a.c")]
        assert deleted == []
        synced = sync_on_commit(root, renames, deleted)
        snap = snapshot_worktree(root)
        assert resolve(synced, snap, from_rendered("/b.c")) == record("a")
        assert resolve(synced, snap, from_rendered("/a.c")) == record("c")

    def test_edits_of_cited_files_keep_their_keys(self, git_repo):
        root = git_repo()
        cf = seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        (root / "a.c").write_text(_source("alpha") + "one more line\n")
        (root / "b.c").write_text("rewritten from scratch\n" * 40)
        git(root, "add", "-A")
        renames, deleted = staged_changes(root)
        assert (renames, deleted) == ([], [])
        assert sync_on_commit(root, renames, deleted) == cf

    def test_a_copy_then_edit_keeps_the_original_key(self, git_repo):
        # Git reports a rename whose source is still staged as a copy, which
        # the sync ignores, so the edited original keeps its citation.
        root = git_repo()
        cf = seed(root, {"a.c": _source("alpha")}, {"/a.c": "a"})
        (root / "a2.c").write_text(_source("alpha"))
        lines = _source("alpha").splitlines(keepends=True)
        (root / "a.c").write_text("".join(lines[:3] + lines[6:]))
        git(root, "add", "-A")
        renames, deleted = staged_changes(root)
        assert (renames, deleted) == ([], [])
        synced = sync_on_commit(root, renames, deleted)
        assert synced == cf
        assert resolve(synced, snapshot_worktree(root), from_rendered("/a.c")) == record("a")

    @pytest.mark.parametrize("source_cited", [True, False])
    def test_overwriting_a_cited_file_drops_its_old_record(self, git_repo, source_cited):
        root = git_repo()
        cites = {"/a.c": "a", "/b.c": "b"} if source_cited else {"/b.c": "b"}
        seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, cites)
        git(root, "mv", "-f", "a.c", "b.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a.c", "/b.c")]
        assert [str(d) for d in deleted] == ["/b.c"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == (["/", "/b.c"] if source_cited else ["/"])
        expected = record("a") if source_cited else record("root")
        assert resolve(synced, snapshot_worktree(root), from_rendered("/b.c")) == expected

    def test_a_file_that_a_name_no_key_can_have_overwrote_loses_its_record(self, git_repo):
        # The old content of c/y.c is gone, whatever the source's name.
        root = git_repo()
        seed(root, {"we\\ird.c": _source("odd"), "c/y.c": _source("y")}, {"/c/y.c": "y"})
        git(root, "mv", "-f", "we\\ird.c", "c/y.c")
        renames, deleted = staged_changes(root)
        assert renames == [] and [str(d) for d in deleted] == ["/c/y.c"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/"]

    def test_a_file_renamed_onto_one_renamed_to_a_name_no_key_can_have_keeps_its_record(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "c.c": _source("gamma")}, {"/a.c": "a", "/c.c": "c"})
        git(root, "mv", "a.c", "we\\ird.c")
        git(root, "mv", "c.c", "a.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/c.c", "/a.c")]
        assert [str(d) for d in deleted] == ["/a.c"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/", "/a.c"]
        assert synced.get(from_rendered("/a.c")) == record("c")

    def test_an_overwriting_rename_asks_git_nothing_more(self, git_repo, monkeypatch):
        # The overwritten file comes from the tree diff the sync reads anyway.
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        git(root, "mv", "-f", "a.c", "b.c")
        calls = _recorded_git_calls(monkeypatch)
        synced = sync_on_commit(root, *staged_changes(root))
        assert synced.get(from_rendered("/b.c")) == record("a")
        assert all("cat-file" not in args for args in calls), calls

    def test_renaming_onto_a_stale_key_still_raises(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha")}, {"/a.c": "a", "/b.c": "stale"})
        git(root, "mv", "a.c", "b.c")
        before = (root / "citation.cite").read_bytes()
        with pytest.raises(InvariantBroken):
            sync_on_commit(root, *staged_changes(root))
        assert (root / "citation.cite").read_bytes() == before

    def test_a_tracked_non_utf8_name_does_not_stop_a_rename(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), os.fsdecode(b"bad\xff.c"): "odd"}, {"/a.c": "a"})
        git(root, "mv", "a.c", "b.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a.c", "/b.c")]
        assert deleted == []
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/", "/b.c"]
        assert synced.get(from_rendered("/b.c")) == record("a")

    def test_a_carriage_return_in_a_name_is_kept(self, git_repo):
        root = git_repo()
        seed(root, {"a\rb.c": _source("alpha"), "c.c": "c"}, {"/a\rb.c": "a"})
        git(root, "mv", "a\rb.c", "d\re.c")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [("/a\rb.c", "/d\re.c")]
        assert deleted == []

    def test_deleting_a_name_no_key_can_have_does_not_stop_the_sync(self, git_repo):
        root = git_repo()
        cf = seed(root, {"a.c": "a", "odd/we\\ird.c": "odd", "odd/b.c": "b"}, {"/a.c": "a", "/odd/": "odd"})
        git(root, "rm", "-q", "odd/we\\ird.c")
        assert staged_changes(root) == ([], [])
        git(root, "rm", "-q", "odd/b.c")
        renames, deleted = staged_changes(root)
        assert renames == [] and [str(d) for d in deleted] == ["/odd/b.c", "/odd/"]
        assert sync_on_commit(root, renames, deleted) == cf.without(from_rendered("/odd/"))

    def test_a_cited_file_renamed_to_a_name_no_key_can_have_loses_its_citation(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        git(root, "mv", "a.c", "we\\ird.c")
        renames, deleted = staged_changes(root)
        assert renames == [] and [str(d) for d in deleted] == ["/a.c"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/", "/b.c"]

    def test_emptied_directory_beside_a_sibling_that_keeps_files(self, git_repo):
        root = git_repo()
        seed(root, {"lib/a/x.c": "x", "lib/a/y.c": "y", "lib/b/z.c": "z"}, {})
        git(root, "rm", "-r", "-q", "lib/a")
        renames, deleted = staged_changes(root)
        assert renames == []
        assert [str(d) for d in deleted] == ["/lib/a/x.c", "/lib/a/y.c", "/lib/a/"]


class TestWorktreeAndHistory:
    def test_snapshot_skips_git_dir_and_citation_file(self, git_repo):
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {})
        lookup = WorktreeLookup(root)
        kinds = {s: lookup.kind_of(s) for s in [(), ("src",), ("src", "a.c"), (".git",), ("citation.cite",)]}
        assert kinds == {
            (): PathKind.DIRECTORY,
            ("src",): PathKind.DIRECTORY,
            ("src", "a.c"): PathKind.FILE,
            (".git",): None,
            ("citation.cite",): None,
        }
        snap = snapshot_worktree(root)
        assert [str(p) for p in snap.paths()] == ["/", "/src/", "/src/a.c"]
        assert all(lookup.contains(p) for p in snap.paths())
        assert snap.digest_at(from_rendered("/src/a.c")) == ""  # contents are never read

    def test_tree_and_citation_file_at_a_revision(self, git_repo):
        root = git_repo()
        first_cf = seed(root, {"a.c": "1"}, {"/a.c": "a"})
        first_rev = git(root, "rev-parse", "HEAD").stdout.strip()
        (root / "b.c").write_text("2")
        store_citation_file(root, first_cf.with_entry(from_rendered("/b.c"), record("b")))
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "second")
        old_tree = RevisionLookup(root, first_rev)
        candidates = [ROOT, *map(from_rendered, ["/a.c", "/a.c/", "/b.c", "/citation.cite"])]
        assert [str(p) for p in candidates if old_tree.contains(p)] == ["/", "/a.c"]
        assert citation_file_at_revision(root, first_rev) == first_cf
        assert from_rendered("/b.c") in citation_file_at_revision(root, "HEAD")
        with pytest.raises(UnknownVersion):
            RevisionLookup(root, "not-a-rev").kind_of(("a.c",))
        for bad_rev in ["not-a-rev", "HEAD:citation.cite\nHEAD"]:  # the second would ask for two objects
            with pytest.raises(UnknownVersion):
                citation_file_at_revision(root, bad_rev)

    def test_a_citation_file_at_a_revision_must_be_utf8(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        cite = root / "citation.cite"
        cite.write_bytes(cite.read_bytes().replace(b"owner-root", b"owner-\xff"))
        git(root, "commit", "-q", "-a", "-m", "not UTF-8")
        with pytest.raises(IoFailure, match="citation.cite at revision 'HEAD'"):
            citation_file_at_revision(root, "HEAD")

    def test_default_root_citation_matches_direct_git_queries(self, git_repo):
        root = git_repo(origin="https://example.com/carol/widget.git")
        seed(root, {"a.c": "1"}, {})
        git(root, "commit", "-q", "--allow-empty", "-m", "more", "--author", "Bob Builder <bob@example.com>")
        rec = default_root_citation(root)
        assert (rec.owner, rec.repo_name, rec.locator) == ("carol", "widget", "https://example.com/carol/widget.git")
        assert rec.version_id == git(root, "rev-parse", "--short", "HEAD").stdout.strip()
        assert rec.date == git(root, "log", "-1", "--format=%cI").stdout.strip()
        assert rec.author_list == ("Ada Tester", "Bob Builder")
        assert rec.extras == {}

    def test_default_root_citation_without_origin_falls_back(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": "1"}, {})
        rec = default_root_citation(root)
        assert rec.owner == "Ada Tester"
        assert rec.repo_name == root.name
        assert rec.locator == root.resolve().as_uri()


class TestMergeCitationFiles:
    BASE = CitationFile({ROOT: record("root"), from_rendered("/k.c"): record("old")})

    def test_left_only_change_wins_without_conflict(self):
        left = self.BASE.with_entry(from_rendered("/k.c"), record("new"))
        merged, conflicts = merge_citation_files(self.BASE, left, self.BASE)
        assert conflicts == []
        assert merged.get(from_rendered("/k.c")) == record("new")

    def test_both_changed_goes_to_the_resolver(self):
        left = self.BASE.with_entry(from_rendered("/k.c"), record("l"))
        right = self.BASE.with_entry(from_rendered("/k.c"), record("r"))
        merged, conflicts = merge_citation_files(self.BASE, left, right, choose_right)
        assert [(str(c.key), c.resolution) for c in conflicts] == [("/k.c", "chose_right")]
        assert merged.get(from_rendered("/k.c")) == record("r")

    @staticmethod
    def merged_keys(root: Path, side_rm: list[str], main_rm: list[str]) -> list[str]:
        """A plain ``git rm`` (no sync) and a commit on each branch, then
        ``run_merge`` of ``side`` into ``main``: the merged file's keys."""
        git(root, "branch", "side")
        for branch, paths in (("side", side_rm), ("main", main_rm)):
            git(root, "checkout", "-q", branch)
            if paths:
                git(root, "rm", "-r", "-q", *paths)
            git(root, "commit", "-q", "--allow-empty", "-m", branch)
        merged, conflicts = run_merge(root, "side", choose_left)
        assert conflicts == [] and load_citation_file(root) == merged
        return [str(k) for k in merged]

    def test_prunes_entries_for_files_missing_from_the_merged_tree(self, git_repo):
        root = git_repo()
        seed(root, {"keep.c": "k", "gone.c": "g"}, {"/keep.c": "k", "/gone.c": "g"})
        assert self.merged_keys(root, ["gone.c"], []) == ["/", "/keep.c"]

    @pytest.mark.parametrize("emptied_on", ["side", "main"])
    def test_a_cited_directory_emptied_on_one_branch_loses_its_keys(self, git_repo, emptied_on):
        # Only the directory's own tree entry in the diff names /lib/a/.
        root = git_repo()
        seed(root, {"lib/a/x.c": "x", "lib/a/y.c": "y", "lib/b/z.c": "z"}, {"/lib/a/": "A", "/lib/b/": "B"})
        rm = {"side": [], "main": [], emptied_on: ["lib/a"]}
        assert self.merged_keys(root, rm["side"], rm["main"]) == ["/", "/lib/b/"]

    def test_a_key_dangling_in_both_heads_survives(self, git_repo):
        # Neither head has the path, so the merge deleted nothing there;
        # validate reports such a key, as after a commit.
        root = git_repo()
        seed(root, {"a.c": "a"}, {"/a.c": "a", "/ghost.c": "g", "/ghost/": "gd"})
        assert self.merged_keys(root, [], []) == ["/", "/a.c", "/ghost.c", "/ghost/"]


class _Handler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def http_root(tmp_path):
    served = tmp_path / "www"
    served.mkdir()
    handler = lambda *a, **kw: _Handler(*a, directory=str(served), **kw)  # noqa: E731
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield served, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestFetch:
    def test_fetch_parses_a_served_document(self, http_root):
        served, url = http_root
        cf = CitationFile({ROOT: record("remote"), from_rendered("/lib/"): record("lib")})
        (served / "citation.cite").write_text(serialize(cf))
        fetched = fetch_remote_citation_file(f"{url}/citation.cite")
        assert fetched == cf
        assert serialize(fetched) == (served / "citation.cite").read_text()

    def test_http_404(self, http_root):
        _, url = http_root
        with pytest.raises(HttpStatus) as err:
            fetch_remote_citation_file(f"{url}/nope.cite")
        assert err.value.code == 404

    def test_unreachable_host(self):
        with pytest.raises(NetworkFailure):
            fetch_remote_citation_file("http://127.0.0.1:1/citation.cite", timeout=0.5)

    def test_malformed_remote_document(self, http_root):
        served, url = http_root
        (served / "bad.cite").write_text(json.dumps({"no-root": {}}))
        with pytest.raises(MalformedDocument):
            fetch_remote_citation_file(f"{url}/bad.cite")
