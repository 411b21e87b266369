from __future__ import annotations

import http.server
import json
import os
import re
import threading
from pathlib import Path

import pytest

from gitcite import CitationFile, gitadapter, resolve, validate
from gitcite.cli import main
from gitcite.errors import GitCiteError, IoFailure
from gitcite.fileformat import serialize
from gitcite.gitadapter import (
    RevisionLookup,
    WorktreeLookup,
    default_root_citation,
    fetch_remote_citation_file,
    load_citation_file,
    run_merge,
    staged_changes,
    sync_on_commit,
)
from gitcite.ops import carry_keys, choose_left, choose_right, merge_citation_files
from gitcite.paths import ROOT, PathKind, from_rendered

from conftest import git, init_repo, seed
from identity_model import Model, citation_file
from support import record, snapshot_worktree, store_citation_file, tree_paths


def _source(tag: str) -> str:
    """A file that shares most of its lines with every other one. Git never
    splits a modification of a file under 400 bytes into a rename source."""
    header = "".join(f"#include <common{i}.h>\n" for i in range(30))
    return header + "".join(f"{tag} line {i}\n" for i in range(12))


def _small(tag: str) -> str:
    """A file under 400 bytes: git reports its swap or overwrite as
    modified, added and deleted files, and the sync pairs them by blob id."""
    return "".join(f"{tag} line {i}\n" for i in range(8))


CONTENTS = pytest.mark.parametrize("content", [_source, _small], ids=["source", "small"])


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
        message = f"no citation.cite at {tmp_path}; run 'gitcite init' there first"
        with pytest.raises(IoFailure, match=f"^{re.escape(message)}$"):
            load_citation_file(tmp_path)

    def test_malformed_file(self, tmp_path):
        (tmp_path / "citation.cite").write_text("{broken")
        with pytest.raises(GitCiteError, match="citation.cite: Expecting property name enclosed in double quotes"):
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
        with pytest.raises(GitCiteError, match="^key rewrite puts two entries at /b.c$"):
            sync_on_commit(tmp_path, [(from_rendered("/a.c"), from_rendered("/b.c"))], [])
        assert (tmp_path / "citation.cite").read_bytes() == before

    def test_deleting_the_only_cited_file_leaves_the_root(self, tmp_path):
        store_citation_file(tmp_path, CitationFile(
            {ROOT: record("root"), from_rendered("/a.c"): record("a")}
        ))
        synced = sync_on_commit(tmp_path, [], [from_rendered("/a.c")])
        assert [str(k) for k in synced.keys()] == ["/"]


class TestStagedChanges:
    def test_before_the_first_commit_there_is_nothing_to_carry(self, git_repo):
        root = git_repo()
        (root / "a.c").write_text("a")
        store_citation_file(root, CitationFile({ROOT: record("root"), from_rendered("/a.c"): record("a")}))
        git(root, "add", "-A")
        before = os.stat(root / "citation.cite"), (root / "citation.cite").read_bytes()
        assert staged_changes(root) == ([], [])
        sync_on_commit(root, *staged_changes(root))
        after = os.stat(root / "citation.cite"), (root / "citation.cite").read_bytes()
        assert (after[0].st_ino, after[1]) == (before[0].st_ino, before[1])

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

    def test_a_directory_moved_under_another_parent_keeps_its_key(self, git_repo):
        # The whole common run of trailing names, lib/util.c, nominates src -> vendor,
        # which fails since src/main.c stays; the shorter run nominates src/lib -> vendor/lib.
        root = git_repo()
        seed(root, {"src/lib/util.c": "u", "src/main.c": "m", "vendor/README": "r"}, {"/src/lib/": "lib"})
        git(root, "mv", "src/lib", "vendor/lib")
        renames, deleted = staged_changes(root)
        assert [(str(a), str(b)) for a, b in renames] == [
            ("/src/lib/", "/vendor/lib/"),
            ("/src/lib/util.c", "/vendor/lib/util.c"),
        ]
        assert [str(d) for d in deleted] == ["/src/lib/"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/", "/vendor/lib/"]

    def test_a_sync_lists_no_tree(self, git_repo, git_calls):
        # Nothing staged: one cat-file for HEAD's tree and one write-tree
        # for the index's, which are equal. A directory moved to a new name
        # adds the diffs, and still nothing lists the index or a tree.
        root = git_repo()
        seed(root, {"pkg/a.c": "a", "pkg/deep/b.c": "b", "other.c": "o"}, {})
        assert staged_changes(root) == ([], [])
        assert len(git_calls) <= 2, git_calls
        assert all({"ls-files", "ls-tree", "diff"}.isdisjoint(args) for args in git_calls), git_calls
        git_calls.clear()
        git(root, "mv", "pkg", "moved")
        renames, _ = staged_changes(root)
        assert (str(renames[0][0]), str(renames[0][1])) == ("/pkg/", "/moved/")
        assert all({"ls-files", "ls-tree"}.isdisjoint(args) for args in git_calls), git_calls

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
        with pytest.raises(GitCiteError, match="^key rewrite puts two entries at /b/$"):
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

    @CONTENTS
    def test_a_swap_of_two_cited_files_moves_both_records(self, git_repo, content):
        root = git_repo()
        seed(root, {"a.c": content("alpha"), "c.c": content("gamma")}, {"/a.c": "a", "/c.c": "c"})
        git(root, "mv", "a.c", "b.c")
        git(root, "mv", "c.c", "a.c")
        renames, deleted = staged_changes(root)
        assert sorted((str(a), str(b)) for a, b in renames) == [("/a.c", "/b.c"), ("/c.c", "/a.c")]
        assert deleted == []
        synced = sync_on_commit(root, renames, deleted)
        snap = snapshot_worktree(root)
        assert resolve(synced, snap, from_rendered("/b.c")) == record("a")
        assert resolve(synced, snap, from_rendered("/a.c")) == record("c")

    @CONTENTS
    def test_a_rotation_of_three_cited_files_moves_every_record(self, git_repo, content):
        root = git_repo()
        files = {name: content(name) for name in ("a.c", "b.c", "c.c")}
        seed(root, files, {"/a.c": "a", "/b.c": "b", "/c.c": "c"})
        for old, new in (("a.c", "t.c"), ("c.c", "a.c"), ("b.c", "c.c"), ("t.c", "b.c")):
            git(root, "mv", old, new)
        renames, deleted = staged_changes(root)
        assert sorted((str(a), str(b)) for a, b in renames) == [("/a.c", "/b.c"), ("/b.c", "/c.c"), ("/c.c", "/a.c")]
        assert deleted == []
        synced = sync_on_commit(root, renames, deleted)
        assert {str(k): v for k, v in synced.items() if not k.is_root} == {
            "/a.c": record("c"),
            "/b.c": record("a"),
            "/c.c": record("b"),
        }

    def test_a_swap_of_two_files_with_identical_contents_changes_no_key(self, git_repo):
        # The trees are equal, so nothing tells the two files apart.
        root = git_repo()
        cf = seed(root, {"a.c": _small("same"), "c.c": _small("same")}, {"/a.c": "a", "/c.c": "c"})
        for old, new in (("a.c", "t.c"), ("c.c", "a.c"), ("t.c", "c.c")):
            git(root, "mv", old, new)
        assert staged_changes(root) == ([], [])
        assert sync_on_commit(root) == cf

    def test_content_that_two_deleted_files_held_pairs_with_neither(self, git_repo):
        root = git_repo()
        cites = {"/a.c": "a", "/b.c": "b", "/c.c": "c"}
        seed(root, {"a.c": _small("same"), "b.c": _small("beta"), "c.c": _small("same")}, cites)
        git(root, "rm", "-q", "a.c", "c.c")
        (root / "b.c").write_text(_small("same"))
        git(root, "add", "-A")
        renames, deleted = staged_changes(root)
        assert renames == [] and [str(d) for d in deleted] == ["/a.c", "/c.c"]
        assert [str(k) for k in sync_on_commit(root, renames, deleted)] == ["/", "/b.c"]

    def test_edits_of_cited_files_keep_their_keys(self, git_repo):
        root = git_repo()
        cf = seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        (root / "a.c").write_text(_source("alpha") + "one more line\n")
        (root / "b.c").write_text("rewritten from scratch\n" * 40)
        git(root, "add", "-A")
        renames, deleted = staged_changes(root)
        assert (renames, deleted) == ([], [])
        assert sync_on_commit(root, renames, deleted) == cf

    @CONTENTS
    def test_a_copy_then_edit_keeps_the_original_key(self, git_repo, content):
        # Git reports a rename whose source is still staged as a copy, which
        # the sync ignores, and a small file's copy as added. The original's
        # new content came from no other file, so it is no move source
        # either: the edited original keeps its citation.
        root = git_repo()
        cf = seed(root, {"a.c": content("alpha")}, {"/a.c": "a"})
        (root / "a2.c").write_text(content("alpha"))
        lines = content("alpha").splitlines(keepends=True)
        (root / "a.c").write_text("".join(lines[:3] + lines[6:]))
        git(root, "add", "-A")
        renames, deleted = staged_changes(root)
        assert (renames, deleted) == ([], [])
        synced = sync_on_commit(root, renames, deleted)
        assert synced == cf
        assert resolve(synced, snapshot_worktree(root), from_rendered("/a.c")) == record("a")

    @pytest.mark.parametrize(
        "source_cited, content",
        [(True, _source), (False, _source), (True, _small), (False, _small)],
        ids=["True", "False", "True-small", "False-small"],
    )
    def test_overwriting_a_cited_file_drops_its_old_record(self, git_repo, source_cited, content):
        root = git_repo()
        cites = {"/a.c": "a", "/b.c": "b"} if source_cited else {"/b.c": "b"}
        seed(root, {"a.c": content("alpha"), "b.c": content("beta")}, cites)
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
        # The overwritten file comes from the tree diff the sync reads anyway:
        # the one object the sync reads is HEAD's tree, and no blob.
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        git(root, "mv", "-f", "a.c", "b.c")
        read, real_git = [], gitadapter._git

        def reading(root, *args, **kwargs):
            if "cat-file" in args:
                read.append(kwargs["input"])
            return real_git(root, *args, **kwargs)

        monkeypatch.setattr(gitadapter, "_git", reading)
        synced = sync_on_commit(root, *staged_changes(root))
        assert synced.get(from_rendered("/b.c")) == record("a")
        assert read == ["HEAD^{tree}\0"]

    def test_renaming_onto_a_stale_key_still_raises(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": _source("alpha")}, {"/a.c": "a", "/b.c": "stale"})
        git(root, "mv", "a.c", "b.c")
        before = (root / "citation.cite").read_bytes()
        with pytest.raises(GitCiteError, match="^key rewrite puts two entries at /b.c$"):
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

    @pytest.mark.parametrize("name", ["we\\ird.c", os.fsdecode(b"z\xfe.c")], ids=["backslash", "non-utf8"])
    def test_a_cited_file_renamed_to_a_name_no_key_can_have_loses_its_citation(self, git_repo, name):
        root = git_repo()
        seed(root, {"a.c": _source("alpha"), "b.c": _source("beta")}, {"/a.c": "a", "/b.c": "b"})
        git(root, "mv", "a.c", name)
        renames, deleted = staged_changes(root)
        assert renames == [] and [str(d) for d in deleted] == ["/a.c"]
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == ["/", "/b.c"]

    def test_the_reader_carries_keys_across_a_commit_made_without_a_sync(self, git_repo, git_calls):
        root = git_repo()
        seed(root, {"d3/f1.c": "one\n", "d3/f2.c": "two\n", "other.c": "o\n"}, {"/d3/": "d3"})
        git(root, "mv", "d3", "e3")
        git(root, "commit", "-q", "-m", "moved without a sync")
        cf = load_citation_file(root)
        found = validate(cf, WorktreeLookup(root))
        assert [(problem.rule, str(problem.path)) for problem in found] == [("dangling_key", "/d3/")]
        old_tree, new_tree = (git(root, "rev-parse", f"{rev}^{{tree}}").stdout.strip() for rev in ("HEAD~1", "HEAD"))
        renames, deleted = gitadapter._tree_changes(root, old_tree, new_tree)
        assert [(str(a), str(b)) for a, b in renames] == [
            ("/d3/", "/e3/"),
            ("/d3/f1.c", "/e3/f1.c"),
            ("/d3/f2.c", "/e3/f2.c"),
        ]
        assert [str(d) for d in deleted] == ["/d3/"]
        assert validate(carry_keys(cf, renames, deleted), WorktreeLookup(root)) == []
        # The -M diff, the tree diff, and an ls-tree of named destinations only.
        assert len(git_calls) <= 3, git_calls
        assert all("ls-files" not in args for args in git_calls), git_calls
        assert all(args[-1].startswith(f"{new_tree}:") for args in git_calls if "ls-tree" in args), git_calls

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
        assert [str(p) for p in tree_paths(snap)] == ["/", "/src/", "/src/a.c"]
        assert all(lookup.contains(p) for p in tree_paths(snap))
        assert snap.files == {("src", "a.c"): ""}  # contents are never read

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
        assert old_tree.citation_file() == first_cf
        assert from_rendered("/b.c") in RevisionLookup(root, "HEAD").citation_file()
        with pytest.raises(GitCiteError, match="^unknown revision 'not-a-rev'$"):
            RevisionLookup(root, "not-a-rev").kind_of(("a.c",))
        for bad_rev in ["not-a-rev", "HEAD:citation.cite\nHEAD"]:  # the second would ask for two objects
            with pytest.raises(GitCiteError, match=f"^{re.escape(f'unknown revision {bad_rev!r}')}$"):
                RevisionLookup(root, bad_rev).citation_file()

    def test_a_citation_file_at_a_revision_must_be_utf8(self, git_repo):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        cite = root / "citation.cite"
        cite.write_bytes(cite.read_bytes().replace(b"owner-root", b"owner-\xff"))
        git(root, "commit", "-q", "-a", "-m", "not UTF-8")
        with pytest.raises(IoFailure, match="citation.cite at revision 'HEAD'"):
            RevisionLookup(root, "HEAD").citation_file()

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
        with pytest.raises(IoFailure, match=f"^HTTP 404 for {re.escape(url)}/nope.cite$"):
            fetch_remote_citation_file(f"{url}/nope.cite")

    def test_unreachable_host(self):
        with pytest.raises(IoFailure, match="^cannot fetch http://127.0.0.1:1/citation.cite: "):
            fetch_remote_citation_file("http://127.0.0.1:1/citation.cite")

    def test_malformed_remote_document(self, http_root):
        served, url = http_root
        (served / "bad.cite").write_text(json.dumps({"no-root": {}}))
        with pytest.raises(GitCiteError) as err:
            fetch_remote_citation_file(f"{url}/bad.cite")
        assert str(err.value).startswith(f"{url}/bad.cite: invalid path key 'no-root'")

    def test_a_remote_body_that_is_not_utf8_names_the_url(self, http_root, monkeypatch, capsys):
        served, url = http_root
        (served / "bad.cite").write_bytes(b'{"/": "\xff"}\n')
        monkeypatch.chdir(served)  # gen --remote needs no checkout
        assert main(["gen", "a.c", "--remote", f"{url}/bad.cite"]) == 3
        assert capsys.readouterr().err.startswith(f"gitcite: cannot read {url}/bad.cite: 'utf-8' codec can't decode")
