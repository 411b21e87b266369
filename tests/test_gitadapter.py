from __future__ import annotations

import http.server
import json
import os
import threading
from pathlib import Path

import pytest

from gitcite import CitationFile, resolve
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
    staged_changes,
    store_citation_file,
    sync_on_commit,
)
from gitcite.ops import choose_right, merge_citation_files
from gitcite.paths import ROOT, PathKind, from_rendered

from conftest import git
from reference_store import CiteEdit, Repository, TreeEdit
from support import record, snapshot_worktree, tree


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

    def test_env_var_overrides_the_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GITCITE_FILE", "CITATION.json")
        cf = CitationFile.single(record("r"))
        store_citation_file(tmp_path, cf)
        assert (tmp_path / "CITATION.json").is_file()
        assert load_citation_file(tmp_path) == cf

    def test_unwritable_target_is_an_io_failure(self, tmp_path):
        from gitcite.errors import IoFailure

        (tmp_path / "citation.cite").mkdir()  # a directory blocks the write
        with pytest.raises(IoFailure):
            store_citation_file(tmp_path, CitationFile.single(record("r")))

    def test_hand_edited_file_warns_but_loads(self, tmp_path, monkeypatch, capsys):
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
        reference = Repository.create(
            "ref", record("root"), tree=tree("/lib/a.c", "/lib/sub/b.c", "/other.c")
        )
        reference.commit("main", cite_edits=[
            CiteEdit.add(from_rendered(k), record(t)) for k, t in cites.items()
        ])
        expected = reference.commit(
            "main", [TreeEdit.rename(from_rendered("/lib/"), from_rendered("/vendor/"))]
        ).cf
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
        renames, _ = staged_changes(root)
        rendered = [(str(a), str(b)) for a, b in renames]
        assert rendered[0] == ("/pkg/", "/moved/")

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
        assert deleted == []
        synced = sync_on_commit(root, renames, deleted)
        assert [str(k) for k in synced] == (["/", "/b.c"] if source_cited else ["/"])
        expected = record("a") if source_cited else record("root")
        assert resolve(synced, snapshot_worktree(root), from_rendered("/b.c")) == expected

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
        merged, conflicts = merge_citation_files(self.BASE, left, self.BASE, tree("/k.c"))
        assert conflicts == []
        assert merged.get(from_rendered("/k.c")) == record("new")

    def test_both_changed_goes_to_the_resolver(self):
        left = self.BASE.with_entry(from_rendered("/k.c"), record("l"))
        right = self.BASE.with_entry(from_rendered("/k.c"), record("r"))
        merged, conflicts = merge_citation_files(self.BASE, left, right, tree("/k.c"), choose_right)
        assert [(str(c.key), c.resolution) for c in conflicts] == [("/k.c", "chose_right")]
        assert merged.get(from_rendered("/k.c")) == record("r")

    def test_prunes_entries_for_files_missing_from_the_merged_tree(self):
        left = self.BASE
        right = self.BASE.with_entry(from_rendered("/extra.c"), record("x"))
        merged, conflicts = merge_citation_files(self.BASE, left, right, tree("/k.c"))
        assert conflicts == []
        assert from_rendered("/extra.c") not in merged


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
