from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gitcite
from gitcite import CitationFile, cli, gitadapter
from gitcite.cli import main
from gitcite.errors import IoFailure
from gitcite.fileformat import record_from_obj, serialize
from gitcite.gitadapter import load_citation_file
from gitcite.model import TreeSnapshot, resolve
from gitcite.paths import ROOT, from_rendered

from conftest import git, seed
from identity_model import Model, citation_file
from support import record, record_to_obj, resolve_by_walking, snapshot_worktree, store_citation_file


class TestInit:
    def test_creates_a_one_entry_file(self, git_repo, monkeypatch, capsys):
        root = git_repo(origin="https://example.com/alice/proj.git")
        (root / "a.c").write_text("x")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "first")
        monkeypatch.chdir(root)
        assert main(["init"]) == 0
        cf = load_citation_file(root)
        assert [str(k) for k in cf.keys()] == ["/"]
        rec = cf.get(ROOT)
        assert rec.owner == "alice" and rec.repo_name == "proj"
        assert rec.version_id == git(root, "rev-parse", "--short", "HEAD").stdout.strip()
        assert "alice" in capsys.readouterr().out

    def test_init_twice_fails_and_keeps_the_file(self, git_repo, monkeypatch):
        root = git_repo(origin="https://example.com/alice/proj.git")
        (root / "a.c").write_text("x")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "first")
        monkeypatch.chdir(root)
        assert main(["init"]) == 0
        before = (root / "citation.cite").read_bytes()
        assert main(["init"]) == 1
        assert (root / "citation.cite").read_bytes() == before

    def test_of_two_overlapping_inits_the_second_to_lock_writes_nothing(self, git_repo, monkeypatch, capsys):
        # A second init runs to the end while the first drafts its record: the
        # first then finds the file under the lock, exits 1 and replaces nothing.
        root = git_repo(origin="https://example.com/alice/proj.git")
        cite = os.path.join(os.path.realpath(root), "citation.cite")
        monkeypatch.chdir(root)
        draft, inner = gitadapter.default_root_citation, {}

        def overlapped(top: str):
            if not inner:
                inner["code"] = None  # the nested init drafts with the real function
                inner["code"], inner["inode"] = main(["init"]), os.stat(cite).st_ino
            return draft(top)

        monkeypatch.setattr(gitadapter, "default_root_citation", overlapped)
        assert main(["init"]) == 1
        assert capsys.readouterr().err == f"gitcite: {cite} already exists\n"
        assert inner["code"] == 0 and os.stat(cite).st_ino == inner["inode"]
        assert git(root, "status", "--porcelain").stdout == "?? citation.cite\n"

    def test_outside_a_repository(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["init"]) == 3

    def test_init_creates_the_file_with_the_umask_and_leaves_no_lock(self, git_repo, monkeypatch):
        root = git_repo(origin="https://example.com/alice/proj.git")
        monkeypatch.chdir(root)
        umask = os.umask(0)
        os.umask(umask)
        assert main(["init"]) == 0
        assert (root / "citation.cite").stat().st_mode & 0o777 == 0o666 & ~umask
        assert git(root, "status", "--porcelain").stdout == "?? citation.cite\n"

    @pytest.mark.parametrize("origin, most", [("https://example.com/alice/proj.git", 2), (None, 3)],
                             ids=["origin", "no-origin"])
    def test_init_runs_few_git_commands(self, git_repo, git_calls, monkeypatch, origin, most):
        # The origin URL, user.name only without an owner, one log. The top
        # is found without git.
        root = git_repo(origin=origin)
        (root / "a.c").write_text("x")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "first")
        monkeypatch.chdir(root)
        assert main(["init"]) == 0
        assert len(git_calls) <= most, git_calls


class TestEditCommands:
    def test_add_then_gen_resolves_to_the_new_record(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"src/lib/util.c": "u", "src/main.c": "m"}, {})
        monkeypatch.chdir(root)
        assert main(["add", "src/lib/", "--field", "owner=Carlos", "--authors", "Carlos"]) == 0
        assert main(["gen", "src/lib/util.c", "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["owner"] == "Carlos"
        assert payload["author_list"] == ["Carlos"]
        cf = load_citation_file(root)
        assert resolve_by_walking(cf, from_rendered("/src/lib/util.c")).owner == "Carlos"
        assert resolve_by_walking(cf, from_rendered("/src/main.c")).owner == record("root").owner

    def test_add_inherits_unset_fields_from_the_closest_ancestor(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {})
        monkeypatch.chdir(root)
        assert main(["add", "src/", "--field", "owner=Carlos"]) == 0
        rec = load_citation_file(root).get(from_rendered("/src/"))
        assert rec.owner == "Carlos"
        assert rec.repo_name == record("root").repo_name
        assert rec.locator == record("root").locator

    def test_del_root_is_refused(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["del", "/"]) == 1
        assert "root" in capsys.readouterr().err

    def test_modify_uncited_path(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"missing.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["modify", "missing.c", "--field", "owner=X"]) == 1

    def test_del_restores_inheritance(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"sub/a.c": "x"}, {"/sub/": "sub"})
        monkeypatch.chdir(root)
        assert main(["del", "sub/"]) == 0
        cf = load_citation_file(root)
        assert resolve(cf, snapshot_worktree(root), from_rendered("/sub/a.c")) == record("root")

    def test_unknown_extras_fields_are_kept(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "funding=NSF-1234"]) == 0
        assert load_citation_file(root).get(from_rendered("/a.c")).extras == {"funding": "NSF-1234"}

    def test_a_path_outside_the_repository_is_refused(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        (root.parent / "outside.c").write_text("o")
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(["add", "../outside.c"]) == 1
        assert "'../outside.c' is outside the repository" in capsys.readouterr().err
        assert (root / "citation.cite").read_bytes() == before

    def test_a_name_that_is_not_utf8_resolves_but_cannot_be_cited(self, git_repo, monkeypatch, capsys):
        # Git tracks such a name, but the citation file is UTF-8, so it can hold no key for it.
        name = os.fsdecode(b"bad\xff.c")
        root = git_repo()
        seed(root, {name: "odd"}, {})
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(["add", name, "--field", "owner=X"]) == 1
        assert capsys.readouterr().err == "gitcite: /bad\\xff.c cannot be cited: its name is not UTF-8\n"
        assert (root / "citation.cite").read_bytes() == before
        assert main(["gen", name, "--format", "json"]) == 0
        assert record_from_obj(json.loads(capsys.readouterr().out)) == record("root")

    def test_a_field_without_a_value_is_a_usage_error(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "novalue"]) == 2
        assert capsys.readouterr() == ("", "gitcite: add: --field expected KEY=VALUE, got 'novalue'\n")

    @pytest.mark.parametrize(
        "field, hint", [("author_list=x", "with --authors"), ("extras=x", "as --field KEY=VALUE directly")]
    )
    def test_authors_and_extras_are_not_set_as_fields(self, git_repo, monkeypatch, capsys, field, hint):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", field]) == 1
        err = capsys.readouterr().err
        assert hint in err and err.count("\n") == 1
        assert (root / "citation.cite").read_bytes() == before

    def test_modifying_a_derived_field_notes_where_it_comes_from(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {"/a.c": "a"})
        monkeypatch.chdir(root)
        assert main(["modify", "a.c", "--field", "version_id=v9"]) == 0
        assert "note: version_id is normally derived from repository metadata\n" in capsys.readouterr().out
        assert load_citation_file(root).get(from_rendered("/a.c")).version_id == "v9"


    @pytest.mark.parametrize(
        "argv, field",
        [
            (["add", "a/x.c", "--field", "owner=" + os.fsdecode(b"\xff")], "owner"),
            (["add", "a/x.c", "--authors", os.fsdecode(b"B\xffob")], "author_list"),
            (["add", "a/x.c", "--field", os.fsdecode(b"fund\xff") + "=NSF"], "fund\\xff"),
            (["modify", "a/x.c", "--field", "owner=" + os.fsdecode(b"\xff")], "owner"),
        ],
        ids=["add-field", "add-authors", "add-extras-key", "modify-field"],
    )
    def test_a_field_that_is_not_utf8_is_named(self, git_repo, monkeypatch, capsys, argv, field):
        # A byte the command line could not decode reaches the record as a lone surrogate.
        root = git_repo()
        seed(root, {"a/x.c": "x"}, {"/a/x.c": "x"} if argv[0] == "modify" else {})
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"gitcite: /a/x.c: field '{field}' is not UTF-8\n"
        assert (root / "citation.cite").read_bytes() == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_is_not_in_the_tree(self, git_repo, monkeypatch, capsys):
        # git add skips a FIFO, so no commit could carry its citation.
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        os.mkfifo(root / "fifo")
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(["add", "fifo"]) == 1
        assert capsys.readouterr().err == "gitcite: /fifo is not in the tree\n"
        assert (root / "citation.cite").read_bytes() == before
        store_citation_file(root, load_citation_file(root).with_entry(from_rendered("/fifo"), record("f")))
        assert main(["validate"]) == 1
        assert "dangling_key" in (out := capsys.readouterr().out) and "/fifo" in out


class TestGen:
    def test_gen_at_the_root(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", "."]) == 0
        assert record("root").owner in capsys.readouterr().out

    def test_gen_reads_but_never_writes(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"a.c": "x"}, {"/a.c": "a"})
        monkeypatch.chdir(root)
        before = (root / "citation.cite").read_bytes()
        assert main(["gen", "a.c"]) == 0
        assert main(["validate"]) == 0
        assert (root / "citation.cite").read_bytes() == before

    def test_gen_json_round_trips_to_the_same_record(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        cf = seed(root, {"a.c": "x"}, {"/a.c": "a"})
        monkeypatch.chdir(root)
        assert main(["gen", "a.c", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert record_from_obj(payload) == cf.get(from_rendered("/a.c"))

    def test_gen_bibtex_shape(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", ".", "--format", "bibtex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("@software{")
        assert f"title = {{{record('root').repo_name}}}" in out
        assert "year = {2021}" in out

    def test_a_bibtex_key_with_no_ascii_letter_or_digit_falls_back(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "owner=张三", "--field", "repo_name=项目", "--field", "version_id="]) == 0
        capsys.readouterr()
        assert main(["gen", "a.c", "--format", "bibtex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("@software{software,\n")
        assert "title = {项目}" in out

    def test_dangling_symlink_in_the_worktree(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x", "sub/b.c": "y"}, {"/sub/": "sub"})
        (root / "sub" / "broken").symlink_to(root / "sub" / "no-such-target")
        monkeypatch.chdir(root)
        assert main(["gen", "sub/broken", "--format", "json"]) == 0
        assert record_from_obj(json.loads(capsys.readouterr().out)) == record("sub")
        assert main(["validate"]) == 0

    @pytest.mark.parametrize("version", [[], ["--version", "HEAD"]], ids=["worktree", "revision"])
    def test_gen_of_a_directory_written_without_a_slash(self, git_repo, monkeypatch, capsys, version):
        root = git_repo()
        seed(root, {"src/lib/util.c": "u", "src/main.c": "m"}, {"/src/lib/": "lib", "/src/": "src"})
        monkeypatch.chdir(root / "src")
        assert main(["gen", "lib", "--format", "json", *version]) == 0
        assert record_from_obj(json.loads(capsys.readouterr().out)) == record("lib")

    def test_gen_missing_path(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", "ghost.c"]) == 1

    @pytest.mark.parametrize(
        "name, code, err",
        [
            ("we\\ird.c", 1, "gitcite: segment 'we\\\\ird.c' contains a separator\n"),
            (os.fsdecode(b"bad\xff.c"), 0, ""),
        ],
        ids=["backslash", "non-utf8"],
    )
    def test_gen_of_a_tracked_name_no_key_can_have(self, git_repo, monkeypatch, capsys, name, code, err):
        # A backslash is a separator in a typed path, so that name cannot be
        # typed at all; a name that is not UTF-8 resolves to its ancestor's record.
        root = git_repo()
        seed(root, {"a.c": "a", name: "odd"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", name, "--format", "json"]) == code
        out, got = capsys.readouterr()
        assert got == err
        if code == 0:
            assert record_from_obj(json.loads(out)) == record("root")

    @pytest.mark.parametrize("raw", ["src/nope.c", "src/a.c/"], ids=["absent", "file-as-directory"])
    def test_a_path_not_in_the_tree_is_reported_as_such(self, git_repo, monkeypatch, capsys, raw):
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", raw]) == 1
        assert capsys.readouterr().err == f"gitcite: /{raw} is not in the tree\n"

    def test_gen_at_a_historical_revision(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        old_rev = git(root, "rev-parse", "HEAD").stdout.strip()
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "owner=Later"]) == 0
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "cite a.c")
        capsys.readouterr()  # drop the add command's chatter
        assert main(["gen", "a.c", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["owner"] == "Later"
        assert main(["gen", "a.c", "--version", old_rev, "--format", "json"]) == 0
        seen = json.loads(capsys.readouterr().out)

        # oracle: check out that revision elsewhere and resolve in place
        clone = root.parent / "clone"
        git(root.parent, "clone", "-q", str(root), str(clone))
        git(clone, "checkout", "-q", old_rev)
        expected = resolve(load_citation_file(clone), snapshot_worktree(clone), from_rendered("/a.c"))
        assert record_from_obj(seen) == expected

    def test_remote_with_version_is_a_usage_error(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(["gen", "a.c", "--version", "HEAD", "--remote", "http://127.0.0.1:9/citation.cite"]) == 2
        assert capsys.readouterr() == ("", "gitcite: gen: --version and --remote exclude each other\n")

    @pytest.mark.parametrize("rev", ["", "HEAD:a.c", "blob"], ids=["empty", "path-at-revision", "blob-id"])
    def test_a_version_that_is_not_a_tree_is_an_unknown_revision(self, git_repo, monkeypatch, capsys, rev):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        rev = git(root, "rev-parse", "HEAD:a.c").stdout.strip() if rev == "blob" else rev
        assert main(["gen", "a.c", "--version", rev]) == 1
        assert capsys.readouterr().err == f"gitcite: unknown revision {rev!r}\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["gen", ".", "--version", "HEAD\x00"], 1, "unknown revision 'HEAD\\x00'"),
            (["merge", "HEAD\x00", "--ours"], 1, "unknown revision 'HEAD\\x00'"),
            (["copy", "x\x00y", "sub/", "dst/"], 3,
             "cannot fetch the HEAD of 'x\\x00y': a name holding a NUL names no repository"),
        ],
        ids=["gen-version", "merge", "copy"],
    )
    def test_a_name_holding_a_nul_is_refused_before_any_git_call(
        self, git_repo, git_calls, monkeypatch, capsys, argv, code, message
    ):
        # Git reads a NUL as the end of a name, and no argument can hold one.
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        monkeypatch.chdir(root)
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"gitcite: {message}\n")
        assert git_calls == []

    def test_a_commit_without_the_citation_file_is_an_environment_error(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        (root / "a.c").write_text("x")
        git(root, "add", "a.c")
        git(root, "commit", "-q", "-m", "before the citation file")
        seed(root, {}, {})
        monkeypatch.chdir(root)
        assert main(["gen", "a.c", "--version", "HEAD~1"]) == 3
        assert capsys.readouterr().err == "gitcite: no citation.cite at revision 'HEAD~1'\n"

    @pytest.mark.parametrize(
        "rev, code, message",
        [
            ("no-such-rev", 1, "unknown revision 'no-such-rev'"),
            ("HEAD~1", 3, "no citation.cite at revision 'HEAD~1'"),
        ],
        ids=["unknown-revision", "no-citation-file"],
    )
    def test_a_version_that_gives_no_citation_file_asks_git_once(
        self, git_repo, git_calls, monkeypatch, capsys, rev, code, message
    ):
        # One cat-file reads the revision's tree and its citation file together.
        root = git_repo()
        (root / "a.c").write_text("x")
        git(root, "add", "a.c")
        git(root, "commit", "-q", "-m", "before the citation file")
        seed(root, {}, {})
        monkeypatch.chdir(root)
        assert main(["gen", "a.c", "--version", rev]) == code
        assert capsys.readouterr() == ("", f"gitcite: {message}\n")
        assert len(git_calls) == 1, git_calls

    @pytest.mark.parametrize("argv", [["gen", "a.c"], ["validate"]], ids=["gen", "validate"])
    @pytest.mark.parametrize(
        "prefix, cut, error",
        [
            ("\ufeff", None, "Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"),
            ("", 1, "Expecting property name enclosed in double quotes (line 1, column 2)"),
        ],
        ids=["bom", "json"],
    )
    def test_a_malformed_citation_file_is_named(self, git_repo, monkeypatch, capsys, argv, prefix, cut, error):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        text = (root / "citation.cite").read_text()
        (root / "citation.cite").write_text(prefix + text[:cut], encoding="utf-8")
        monkeypatch.chdir(root)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"gitcite: {root / 'citation.cite'}: {error}\n"

    def test_a_malformed_citation_file_at_a_revision_is_named_with_it(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "x"}, {})
        good = (root / "citation.cite").read_text()
        (root / "citation.cite").write_text(serialize(CitationFile({from_rendered("/a.c"): record("a")})))
        git(root, "commit", "-q", "-am", "no root entry")
        (root / "citation.cite").write_text(good)
        git(root, "commit", "-q", "-am", "fixed")
        monkeypatch.chdir(root)
        assert main(["gen", "a.c", "--version", "HEAD~1"]) == 1
        assert capsys.readouterr().err == "gitcite: citation.cite at revision 'HEAD~1': the document has no '/' entry\n"
        assert main(["gen", "a.c", "--version", "HEAD"]) == 0

    def test_gen_remote(self, git_repo, monkeypatch, capsys, tmp_path):
        import http.server
        import threading

        served = tmp_path / "www"
        served.mkdir()
        cf = CitationFile({ROOT: record("remote"), from_rendered("/lib/"): record("lib")})
        (served / "citation.cite").write_text(serialize(cf))
        handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(  # noqa: E731
            *a, directory=str(served), **kw
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}/citation.cite"
        try:
            monkeypatch.chdir(tmp_path)
            assert main(["gen", "lib/inner.c", "--remote", url, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["owner"] == record("lib").owner
            assert main(["gen", "elsewhere.c", "--remote", url, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["owner"] == record("remote").owner
        finally:
            server.shutdown()
            server.server_close()


    @pytest.mark.parametrize(
        "raw, tag", [("a/../b.c", "b"), ("a//x.c", "a"), ("a/.", "a"), ("/a/x.c/..", "a")],
        ids=["dot-dot", "empty-segment", "trailing-dot", "anchored-dot-dot"],
    )
    def test_gen_remote_parses_paths_as_the_worktree_does(self, git_repo, monkeypatch, capsys, raw, tag):
        root = git_repo()
        seed(root, {"a/x.c": "x", "b.c": "b"}, {"/a/": "a", "/b.c": "b"})
        monkeypatch.chdir(root)
        assert main(["gen", raw, "--format", "json"]) == 0
        in_worktree = capsys.readouterr().out
        assert record_from_obj(json.loads(in_worktree)) == record(tag)
        assert main(["gen", raw, "--format", "json", "--remote", (root / "citation.cite").as_uri()]) == 0
        assert capsys.readouterr().out == in_worktree

    def test_gen_remote_refuses_a_path_above_the_root(self, tmp_path, monkeypatch, capsys):
        store_citation_file(tmp_path, CitationFile.single(record("root")))
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "a/../../b.c", "--remote", (tmp_path / "citation.cite").as_uri()]) == 1
        assert capsys.readouterr().err == "gitcite: 'a/../../b.c' is outside the repository\n"


class TestCopy:
    def test_copy_preserves_resolution_and_reports_entries(self, git_repo, monkeypatch, capsys):
        src = git_repo("src")
        seed(src, {"core/f2": "f2", "core/deep/g.c": "g"}, {"/core/": "core"})
        dst = git_repo("dst")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "core/", "vendor/"]) == 0
        out = capsys.readouterr().out
        assert "/vendor/" in out
        assert (dst / "vendor/f2").read_text() == "f2"
        cf = load_citation_file(dst)
        moved = from_rendered("/vendor/f2")
        assert resolve(cf, snapshot_worktree(dst), moved) == record("core")

    def test_copy_whole_tree_from_a_clone_url(self, git_repo, monkeypatch):
        src = git_repo("src2")
        seed(src, {"f2": "f2"}, {})
        (src / "citation.cite").chmod(0o755)  # left behind whatever its mode
        git(src, "commit", "-q", "-am", "executable")
        dst = git_repo("dst2")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", f"file://{src}", "/", "imported/"]) == 0
        cf = load_citation_file(dst)
        assert resolve(cf, snapshot_worktree(dst), from_rendered("/imported/f2")) == record("root")
        assert (dst / "imported/f2").read_text() == "f2"
        assert git(dst, "diff", "--cached", "--name-only").stdout.split() == ["imported/f2"]
        assert not os.path.lexists(dst / "imported" / "citation.cite")

    def test_a_directory_named_like_describe_output_is_the_one_copied(self, git_repo, monkeypatch):
        # v-g<abbreviation> is git describe output for the tree the abbreviation names.
        src = git_repo("src-described")
        seed(src, {"a.c": "a"}, {})
        name = "v-g" + git(src, "rev-parse", "HEAD^{tree}").stdout[:7]
        seed(src, {f"{name}/f.c": "f"}, {f"/{name}/": "v"})
        dst = git_repo("dst-described")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), f"{name}/", "vendor/"]) == 0
        assert git(dst, "ls-files", "vendor").stdout == "vendor/f.c\n"
        assert load_citation_file(dst).get(from_rendered("/vendor/")) == record("v")

    def test_symlinks_are_copied_as_links(self, git_repo, monkeypatch, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "secret.c").write_text("not part of the source")
        src = git_repo("src-links")
        (src / "core").mkdir()
        (src / "core" / "dangling").symlink_to("no-such-target")
        (src / "core" / "outside").symlink_to(elsewhere, target_is_directory=True)
        (src / "core" / "run.sh").write_text("#!/bin/sh\n")
        (src / "core" / "run.sh").chmod(0o755)
        seed(src, {"core/f.c": "f"}, {"/core/": "core"})
        dst = git_repo("dst-links")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "core/", "vendor/"]) == 0
        assert os.readlink(dst / "vendor" / "dangling") == "no-such-target"
        assert os.readlink(dst / "vendor" / "outside") == str(elsewhere)
        assert (dst / "vendor" / "f.c").read_text() == "f"
        assert git(dst, "ls-files", "-s", "vendor/run.sh").stdout.startswith("100755 ")
        assert os.stat(dst / "vendor" / "run.sh").st_mode & 0o111 == 0o111
        assert load_citation_file(dst).get(from_rendered("/vendor/")) == record("core")

    @pytest.mark.parametrize("fault", ["citation-write", "index-lock"])
    def test_a_failed_copy_leaves_no_files_and_the_citation_file(self, git_repo, monkeypatch, capsys, fault):
        src = git_repo("src-fail")
        seed(src, {"core/f2": "f2", "core/deep/g.c": "g"}, {"/core/": "core"})
        dst = git_repo("dst-fail")
        seed(dst, {"app.c": "a"}, {})
        before = checkout_state(dst)
        lock = dst / ".git" / "index.lock"
        monkeypatch.chdir(dst)
        with monkeypatch.context() as patch:
            if fault == "citation-write":  # the lock's rename over citation.cite, after read-tree ran
                patch.setattr(os, "replace", lambda *args: (_ for _ in ()).throw(OSError("injected")))
            else:  # git refuses read-tree while the index is locked
                lock.touch()
            assert main(["copy", str(src), "core/", "vendor/"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gitcite: ") and err.count("\n") == 1, err
        lock.unlink(missing_ok=True)
        assert not os.path.lexists(dst / "vendor")
        assert checkout_state(dst) == before

    def test_a_failed_copy_of_a_submodule_leaves_no_directory(self, git_repo, monkeypatch, capsys):
        # read-tree checks a submodule out as an empty directory, which git rm leaves.
        src = git_repo("src-gitlink")
        seed(src, {"lib/a.c": "a"}, {})
        gitlink = "1" * len(git(src, "rev-parse", "HEAD").stdout.strip())  # as long as this hash's ids
        git(src, "update-index", "--add", "--cacheinfo", f"160000,{gitlink},lib/inner")
        git(src, "commit", "-q", "-m", "a submodule")
        dst = git_repo("dst-gitlink")
        seed(dst, {"app.c": "a"}, {})
        before = checkout_state(dst)
        monkeypatch.chdir(dst)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", lambda *args: (_ for _ in ()).throw(OSError("injected")))
            assert main(["copy", str(src), "lib/", "vendor/"]) == 3
        err = capsys.readouterr().err
        assert err == "gitcite: cannot write citation.cite: injected\n", err
        assert not os.path.lexists(dst / "vendor")
        assert checkout_state(dst) == before
        assert main(["copy", str(src), "lib/", "vendor/"]) == 0
        assert git(dst, "ls-files", "-s", "vendor/inner").stdout.startswith("160000 ")

    def test_only_what_the_source_committed_is_copied_and_staged(self, git_repo, monkeypatch, capsys):
        src = git_repo("src1")
        (src / ".gitignore").write_text("build/\n")
        seed(src, {"lib/a.c": "a", "lib/b.c": "b"}, {"/lib/a.c": "a"})
        (src / "lib" / "build").mkdir()
        (src / "lib" / "build" / "o.o").write_text("ignored")
        (src / "lib" / "untracked.tmp").write_text("untracked")
        (src / "lib" / "b.c").write_text("an uncommitted edit")
        dst = git_repo("dst1")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", "../src1", "lib/", "vendor/"]) == 0
        assert sorted(p.name for p in (dst / "vendor").iterdir()) == ["a.c", "b.c"]
        assert (dst / "vendor" / "b.c").read_text() == "b"
        assert git(dst, "diff", "--cached", "--name-only").stdout.split() == ["vendor/a.c", "vendor/b.c"]
        assert git(dst, "status", "--porcelain").stdout.splitlines() == [
            " M citation.cite", "A  vendor/a.c", "A  vendor/b.c"
        ]
        assert load_citation_file(dst).get(from_rendered("/vendor/a.c")) == record("a")
        capsys.readouterr()
        assert main(["validate"]) == 0

    def test_a_source_that_starts_with_a_dash_is_never_an_option(self, git_repo, monkeypatch, capsys, tmp_path):
        dst = git_repo("dst-dash")
        seed(dst, {"app.c": "a"}, {})
        before = (dst / "citation.cite").read_bytes()
        monkeypatch.chdir(dst)
        assert main(["copy", "--", "--upload-pack=touch MARKER", "sub/", "dst/"]) != 0
        err = capsys.readouterr().err
        assert err.startswith("gitcite: ") and err.count("\n") == 1, err
        assert not list(tmp_path.rglob("MARKER"))
        assert (dst / "citation.cite").read_bytes() == before

    def test_a_path_a_url_and_a_relative_path_copy_alike(self, git_repo, monkeypatch):
        src = git_repo("lib.git")  # a checkout whose name ends in .git
        seed(src, {"sub/f.c": "f", "sub/deep/g.c": "g"}, {"/sub/deep/": "deep"})
        results = []
        for name, cwd, source in [
            ("by-path", ".", str(src)), ("by-url", ".", src.as_uri()), ("relative", "d1/d2", "../../../lib.git")
        ]:
            dst = git_repo(name)
            seed(dst, {"d1/d2/x.c": "x"}, {})
            refs = git(dst, "for-each-ref").stdout
            monkeypatch.chdir(dst / cwd)
            assert main(["copy", source, "sub/", "/vendor/"]) == 0
            results.append(((dst / "citation.cite").read_bytes(), git(dst, "diff", "--cached", "--name-only").stdout))
            assert not (dst / ".git" / "shallow").exists()
            assert git(dst, "for-each-ref").stdout == refs
        assert results[0] == results[1] == results[2]
        assert results[0][1].split() == ["vendor/deep/g.c", "vendor/f.c"]

    @pytest.mark.parametrize(
        "cite, code, says",
        [(None, 3, "no citation.cite at the HEAD of '../bad'"), (b"{", 1, "citation.cite at the HEAD of '../bad': ")],
        ids=["missing", "malformed"],
    )
    def test_a_bad_source_citation_file_is_named_by_the_source(self, git_repo, monkeypatch, capsys, cite, code, says):
        src = git_repo("bad")
        (src / "sub").mkdir()
        (src / "sub" / "f.c").write_text("f")
        if cite is not None:
            (src / "citation.cite").write_bytes(cite)
        git(src, "add", "-A")
        git(src, "commit", "-q", "-m", "no good citation file")
        dst = git_repo("dst-bad")
        seed(dst, {"app.c": "a"}, {})
        before = checkout_state(dst)
        monkeypatch.chdir(dst)
        assert main(["copy", "../bad", "sub/", "vendor/"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"gitcite: {says}") and err.count("\n") == 1, err
        assert not re.search(r"[0-9a-f]{40}", err), err
        assert checkout_state(dst) == before

    def test_a_source_with_no_commit_is_an_environment_error(self, git_repo, monkeypatch, capsys):
        git_repo("empty")
        dst = git_repo("dst-empty")
        seed(dst, {"app.c": "a"}, {})
        before = checkout_state(dst)
        monkeypatch.chdir(dst)
        assert main(["copy", "../empty", "sub/", "vendor/"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gitcite: cannot fetch the HEAD of '../empty': ") and err.count("\n") == 1, err
        assert checkout_state(dst) == before

    @pytest.mark.parametrize("files", [2, 40])
    def test_copy_runs_a_fixed_number_of_git_commands(self, git_repo, git_calls, monkeypatch, files):
        # The fetch, one cat-file for the fetched tree and its citation file,
        # whose top entries answer for sub/, and read-tree; a deeper subtree
        # costs one cat-file of its parent's tree, and a root copy one
        # hash-object of the source's top without its citation file.
        src = git_repo("src-cost")
        seed(src, {f"sub/d{i % 3}/f{i}.c": str(i) for i in range(files)}, {"/sub/d1/": "d1"})
        dst = git_repo("dst-cost")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        for subtree, dst_dir, n_calls in [("sub/", "vendor/", 3), ("sub/d1/", "deep/", 4), ("/", "whole/", 4)]:
            git_calls.clear()
            assert main(["copy", "../src-cost", subtree, dst_dir]) == 0
            assert len(git_calls) == n_calls, (subtree, git_calls)
            assert not {"mktree", "ls-tree"} & {args[0] for args in git_calls}, git_calls
        assert [args[0] for args in git_calls].count("hash-object") == 1, git_calls
        staged = git(dst, "diff", "--cached", "--name-only").stdout.split()
        assert len(staged) == 2 * files + len([i for i in range(files) if i % 3 == 1]), staged

    def test_the_source_subtree_takes_the_same_grammar(self, git_repo, monkeypatch, capsys):
        src = git_repo("src-grammar")
        seed(src, {"sub/f.c": "f"}, {"/sub/": "sub"})
        dst = git_repo("dst-grammar")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "sub/../sub/", "dst/"]) == 0
        assert capsys.readouterr().out.startswith("copied /sub/ -> /dst/;")
        assert load_citation_file(dst).get(from_rendered("/dst/")) == record("sub")
        assert (dst / "dst" / "f.c").read_text() == "f"

    def test_destination_collision(self, git_repo, monkeypatch):
        src = git_repo("src3")
        seed(src, {"core/f2": "x"}, {})
        dst = git_repo("dst3")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "core/", "app.c/"]) == 1

    def test_a_collision_with_a_directory_leaves_it_and_the_citation_file(self, git_repo, monkeypatch, capsys):
        # The rollback of a failed copy removes only what the copy created:
        # unlike a file, a directory at the destination is what it would remove.
        src = git_repo("src-onto-dir")
        seed(src, {"sub/f.c": "f"}, {"/sub/": "sub"})
        dst = git_repo("dst-onto-dir")
        seed(dst, {"existing/keep.c": "keep"}, {})
        before = (dst / "citation.cite").read_bytes()
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "sub/", "existing/"]) == 1
        assert "/existing/ already exists" in capsys.readouterr().err
        assert os.listdir(dst / "existing") == ["keep.c"]
        assert (dst / "existing" / "keep.c").read_bytes() == b"keep"
        assert (dst / "citation.cite").read_bytes() == before


def build_conflicted_repo(git_repo) -> Path:
    root = git_repo("merged")
    seed(root, {"shared.c": "s", "main-only.c": "m"}, {"/shared.c": "base"})
    git(root, "checkout", "-q", "-b", "side")
    store_citation_file(
        root,
        load_citation_file(root).with_entry(from_rendered("/shared.c"), record("theirs")),
    )
    (root / "side.c").write_text("side")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "side edit")
    git(root, "checkout", "-q", "main")
    store_citation_file(
        root,
        load_citation_file(root).with_entry(from_rendered("/shared.c"), record("ours")),
    )
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "main edit")
    return root


def model_mirror() -> Model:
    """``build_conflicted_repo``'s history on the identity model."""
    model = Model(record("root"))
    shared = from_rendered("/shared.c")
    model.write(shared, "s")
    model.write(from_rendered("/main-only.c"), "m")
    model.cite(shared, record("base"))
    model.commit()
    model.add_branch("side")
    model.write(from_rendered("/side.c"), "side")
    model.cite(shared, record("theirs"))
    model.commit()
    model.checkout("main")
    model.cite(shared, record("ours"))
    model.commit()
    return model


def diverge(root: Path, side_file: str, main_file: str) -> None:
    """Commit ``side_file``, cited, on a new branch ``side`` and ``main_file``
    on ``main``, which is left checked out."""
    git(root, "checkout", "-q", "-b", "side")
    (root / side_file).write_text("side")
    store_citation_file(root, load_citation_file(root).with_entry(from_rendered("/" + side_file), record("side")))
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "side")
    git(root, "checkout", "-q", "main")
    (root / main_file).write_text("main")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "main")


def checkout_state(root: Path) -> tuple[list[str], bytes]:
    """``HEAD``, the index, ``git status`` and the citation file's bytes."""
    listings = [git(root, *args).stdout for args in (["rev-parse", "HEAD"], ["ls-files", "-s"], ["status", "--porcelain"])]
    return listings, (root / "citation.cite").read_bytes()


class TestMerge:
    @pytest.fixture(autouse=True)
    def _no_pending_merge(self, tmp_path):
        yield
        assert not list(tmp_path.glob("*/.git/MERGE_*"))  # MERGE_HEAD, MERGE_MSG, ...

    def test_ours_keeps_the_current_branch_record(self, git_repo, monkeypatch):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        cf = load_citation_file(root)
        assert cf.get(from_rendered("/shared.c")) == record("ours")
        assert (root / "side.c").is_file()

    def test_theirs_takes_the_other_branch_record(self, git_repo, monkeypatch):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--theirs"]) == 0
        assert load_citation_file(root).get(from_rendered("/shared.c")) == record("theirs")

    @pytest.mark.parametrize("flag, kept", [("--ours", "chose_left"), ("--theirs", "chose_right")])
    def test_the_summary_names_each_conflict_with_the_side_kept(self, git_repo, monkeypatch, capsys, flag, kept):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        assert main(["merge", "side", flag]) == 0
        assert capsys.readouterr().out == (
            f"merged citation file has 2 entries; 1 conflicts resolved\n  /shared.c: {kept}\n"
        )

    def test_the_prompt_shows_both_sides_and_an_edit_is_reported_replaced(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO(f"e {json.dumps(record_to_obj(record('edited')))}\n"))
        assert main(["merge", "side"]) == 0
        assert capsys.readouterr().out == (
            "conflict at /shared.c:\n"
            "  ours:   owner-ours/repo-ours @ rev-ours (author-ours)\n"
            "  theirs: owner-theirs/repo-theirs @ rev-theirs (author-theirs)\n"
            "choose [o]urs / [t]heirs / [e]dit JSON / [q]uit: "
            "merged citation file has 2 entries; 1 conflicts resolved\n"
            "  /shared.c: replaced\n"
        )

    def test_scripted_interactive_session_matches_the_reference_merge(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO("t\n"))
        assert main(["merge", "side", "--interactive"]) == 0
        out = capsys.readouterr().out
        assert "conflict at /shared.c" in out

        reference = model_mirror()
        assert reference.merge("side", {"/shared.c": "right"}) == [("/shared.c", "chose_right")]
        assert (root / "citation.cite").read_text() == serialize(citation_file(reference.work))

    def test_interactive_abort_is_an_error(self, git_repo, monkeypatch):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
        assert main(["merge", "side", "--interactive"]) == 1
        # The half-done merge is aborted: no pending merge, no conflict markers.
        assert not (root / ".git" / "MERGE_HEAD").exists()
        assert (root / "citation.cite").read_text() == git(root, "show", "HEAD:citation.cite").stdout
        assert git(root, "status", "--porcelain").stdout == ""
        assert main(["gen", "shared.c"]) == 0

    def test_answering_ours_at_the_prompt_keeps_the_current_branch_record(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO("o\n"))
        assert main(["merge", "side"]) == 0
        assert capsys.readouterr().out.endswith("1 conflicts resolved\n  /shared.c: chose_left\n")
        assert load_citation_file(root).get(from_rendered("/shared.c")) == record("ours")

    def test_end_of_input_at_the_prompt_is_an_abort(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        before = checkout_state(root)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["merge", "side"]) == 1
        assert capsys.readouterr().out.count("choose [o]urs") == 1
        assert checkout_state(root) == before

    def test_a_branch_that_shares_no_history_changes_nothing(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        git(root, "checkout", "-q", "--orphan", "lone")
        git(root, "commit", "-q", "-m", "no parent")
        git(root, "checkout", "-q", "main")
        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "lone", "--ours"]) == 1
        assert capsys.readouterr().err == "gitcite: HEAD and 'lone' share no history\n"
        assert checkout_state(root) == before

    def test_merging_a_merged_branch_again_changes_nothing(self, git_repo, monkeypatch, capsys):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        before = checkout_state(root)
        capsys.readouterr()
        assert main(["merge", "side"]) == 0
        assert capsys.readouterr().out == "merged citation file has 2 entries; 0 conflicts resolved\n"
        assert checkout_state(root) == before

    @pytest.mark.parametrize(
        "script, prompts",
        [
            ("e {}", 1), ("edit {}", 1), ("edit\n{}", 1), ("e\n{}", 1), ("edit {\"owner\": 1}\nedit {}", 2),
            ('edit {"owner": "a", "owner": "b", "repo_name": "r", "locator": "u"}\nedit {}', 2),
        ],
        ids=[
            "e-inline", "edit-inline", "edit-next-line", "e-next-line", "bad-record-then-edit",
            "duplicate-field-then-edit",
        ],
    )
    def test_an_edited_record_settles_the_conflict(self, git_repo, monkeypatch, capsys, script, prompts):
        root = build_conflicted_repo(git_repo)
        monkeypatch.chdir(root)
        edited = record("edited")
        monkeypatch.setattr("sys.stdin", io.StringIO(script.replace("{}", json.dumps(record_to_obj(edited))) + "\n"))
        assert main(["merge", "side", "--interactive"]) == 0
        out = capsys.readouterr().out
        assert out.count("choose [o]urs") == prompts
        assert out.count("not a valid record") == prompts - 1
        assert load_citation_file(root).get(from_rendered("/shared.c")) == edited

    def test_merge_runs_few_git_commands(self, git_repo, git_calls, monkeypatch):
        # One cat-file for both heads' commits and trees, the merge base, the
        # config read, merge-tree (the one merge), one cat-file for the three
        # citation files and the merged tree, one diff-tree for the paths each
        # head lost, a hash-object for the citation file and one for the tree
        # holding it, commit-tree and the fast-forward. The top is found
        # without git. Nothing lists a tree or builds a snapshot of it.
        root = build_conflicted_repo(git_repo)

        def no_tree(*args, **kwargs):
            raise AssertionError("gitcite merge built a TreeSnapshot")

        monkeypatch.setattr(TreeSnapshot, "from_files", no_tree)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        assert len(git_calls) <= 10, git_calls
        assert [args[0] for args in git_calls].count("merge-tree") == 1, git_calls
        assert all({"--no-commit", "commit", "add", "ls-files", "show"}.isdisjoint(args) for args in git_calls), git_calls
        assert not {"mktree", "ls-tree"} & {args[0] for args in git_calls}, git_calls

    @pytest.mark.parametrize(
        "other", ["no-such-branch", "-q", "side\nHEAD", "side:side.c"], ids=["missing", "dash", "newline", "blob"]
    )
    def test_an_unknown_other_branch_changes_nothing(self, git_repo, monkeypatch, capsys, other):
        root = build_conflicted_repo(git_repo)
        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "--ours", "--", other]) == 1
        assert "unknown revision" in capsys.readouterr().err
        assert checkout_state(root) == before

    def test_ctrl_c_at_the_prompt_exits_130_and_changes_nothing(self, git_repo):
        root = build_conflicted_repo(git_repo)
        before = checkout_state(root)
        script = "import sys; from gitcite.cli import main; sys.exit(main(['merge', 'side']))"
        with subprocess.Popen(
            [sys.executable, "-c", script], cwd=root, env=_cli_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            shown = b""
            while b"choose [o]urs" not in shown:
                chunk = os.read(proc.stdout.fileno(), 4096)
                assert chunk, shown  # the process ended before prompting
                shown += chunk
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err.decode().splitlines() == ["gitcite: interrupted"]
        assert checkout_state(root) == before

    def test_no_conflict_merge_needs_no_answers(self, git_repo, monkeypatch):
        root = git_repo("clean")
        seed(root, {"a.c": "a"}, {})
        git(root, "checkout", "-q", "-b", "side")
        (root / "b.c").write_text("b")
        store_citation_file(root, load_citation_file(root).with_entry(from_rendered("/b.c"), record("b")))
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "side")
        git(root, "checkout", "-q", "main")
        (root / "c.c").write_text("c")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "main")
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))  # any prompt would abort
        assert main(["merge", "side", "--interactive"]) == 0
        cf = load_citation_file(root)
        assert cf.get(from_rendered("/b.c")) == record("b")
        assert (root / "c.c").is_file() and (root / "b.c").is_file()

    def test_a_merge_git_refuses_writes_nothing(self, git_repo, monkeypatch, capsys):
        root = git_repo("refused")
        seed(root, {"a.c": "a"}, {})
        diverge(root, "new.c", "c.c")
        (root / "new.c").write_text("untracked")  # git will not overwrite it
        head = git(root, "rev-parse", "HEAD").stdout
        cite = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 3
        err = capsys.readouterr().err  # git's message and advice, escaped into one line
        assert err.startswith("gitcite: git merge side refused: ") and "new.c" in err and err.count("\n") == 1, err
        assert git(root, "rev-parse", "HEAD").stdout == head
        assert not (root / ".git" / "MERGE_HEAD").exists()
        assert (root / "new.c").read_text() == "untracked"
        assert (root / "citation.cite").read_bytes() == cite
        assert git(root, "status", "--porcelain").stdout == "?? new.c\n"

    @pytest.mark.parametrize(
        "side_change, main_change",
        [
            (("a.c", "theirs"), ("a.c", "ours")),
            (("a.c", None), ("a.c", "ours")),
            (("new.c", "theirs"), ("new.c", "ours")),
            (("citation.cite~x", "theirs"), ("citation.cite~x", "ours")),  # named like git's type-change rename
        ],
        ids=["content", "modify-delete", "add-add", "tilde-name"],
    )
    def test_a_content_conflict_refuses_the_merge(
        self, git_repo, git_calls, monkeypatch, capsys, side_change, main_change
    ):
        root = git_repo("refused-conflict")
        seed(root, {"a.c": "base", "b.c": "b"}, {"/a.c": "a"})
        git(root, "checkout", "-q", "-b", "side")
        for branch, (rel, content) in (("side", side_change), ("main", main_change)):
            git(root, "checkout", "-q", branch)
            if content is None:
                git(root, "rm", "-q", rel)
            else:
                (root / rel).write_text(content)
            git(root, "add", "-A")
            git(root, "commit", "-q", "-m", branch)

        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 1
        assert f"both branches changed {main_change[0]}" in capsys.readouterr().err
        assert checkout_state(root) == before  # and no MERGE_HEAD, as after every TestMerge test
        # The heads, the merge base, the config read and merge-tree; nothing after the refusal.
        assert "merge" not in [args[0] for args in git_calls] and len(git_calls) <= 4, git_calls

    def test_a_citation_file_that_changed_type_refuses_the_merge_by_its_name(self, git_repo, monkeypatch, capsys):
        # merge-tree records the distinct-types conflict as citation.cite plus
        # citation.cite~<one head's commit id>, a path neither head holds.
        root = git_repo("refused-type-change")
        seed(root, {"b.c": "b"}, {})
        git(root, "checkout", "-q", "-b", "side")
        (root / "cite.json").write_text((root / "citation.cite").read_text())
        (root / "citation.cite").unlink()
        (root / "citation.cite").symlink_to("cite.json")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "a symlink")
        git(root, "checkout", "-q", "main")
        monkeypatch.chdir(root)
        assert main(["add", "b.c"]) == 0
        git(root, "commit", "-q", "-am", "cite b.c")
        capsys.readouterr()
        before = checkout_state(root)
        assert main(["merge", "side", "--ours"]) == 1
        assert capsys.readouterr().err == "gitcite: merge refused: citation.cite changed type on one branch\n"
        assert checkout_state(root) == before

    def test_a_merge_commits_neither_untracked_files_nor_unstaged_edits(self, git_repo, monkeypatch):
        root = git_repo("local-work")
        seed(root, {"src/a.c": "a"}, {})
        diverge(root, "b.c", "c.c")
        (root / "notes.txt").write_text("mine")
        (root / "src" / "a.c").write_text("a, edited")
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        assert len(git(root, "log", "-1", "--format=%P").stdout.split()) == 2
        assert git(root, "status", "--porcelain").stdout == " M src/a.c\n?? notes.txt\n"
        assert git(root, "show", "HEAD:src/a.c").stdout == "a"
        assert git(root, "ls-tree", "--name-only", "HEAD").stdout.split() == ["b.c", "c.c", "citation.cite", "src"]
        assert (root / "src" / "a.c").read_text() == "a, edited"
        assert load_citation_file(root).get(from_rendered("/b.c")) == record("side")

    @pytest.mark.parametrize("main_commits", [False, True], ids=["fast-forward", "merge-commit"])
    def test_a_local_edit_in_the_way_refuses_the_merge_under_auto_stash(
        self, git_repo, monkeypatch, capsys, main_commits
    ):
        # With merge.autoStash, git merge would stash the edit, move HEAD and
        # pop the stash into conflict markers; the fast-forward never stashes.
        root = git_repo("auto-stash")
        seed(root, {"f.c": "f"}, {})
        git(root, "checkout", "-q", "-b", "side")
        (root / "f.c").write_text("f, side")
        git(root, "commit", "-q", "-a", "-m", "side")
        git(root, "checkout", "-q", "main")
        if main_commits:
            (root / "c.c").write_text("main")
            git(root, "add", "-A")
            git(root, "commit", "-q", "-m", "main")
        git(root, "config", "merge.autoStash", "true")
        (root / "f.c").write_text("f, local")
        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gitcite: ") and err.count("\n") == 1, err
        assert checkout_state(root) == before
        assert (root / "f.c").read_text() == "f, local"
        assert git(root, "stash", "list").stdout == ""

    def test_an_uncommitted_citation_edit_stops_the_merge(self, git_repo, monkeypatch, capsys):
        root = git_repo("local-cite")
        seed(root, {"a.c": "a"}, {})
        git(root, "checkout", "-q", "-b", "side")
        (root / "b.c").write_text("side")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "side")  # leaves the citation file alone
        git(root, "checkout", "-q", "main")
        (root / "c.c").write_text("main")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "main")
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "owner=LocalEdit"]) == 0
        head = git(root, "rev-parse", "HEAD").stdout
        cite = (root / "citation.cite").read_bytes()
        capsys.readouterr()
        assert main(["merge", "side", "--ours"]) == 3
        assert "citation.cite has uncommitted changes" in capsys.readouterr().err
        assert (root / "citation.cite").read_bytes() == cite
        assert not (root / ".git" / "MERGE_HEAD").exists()
        assert git(root, "rev-parse", "HEAD").stdout == head

    def test_a_staged_change_on_a_merged_path_refuses_the_merge(self, git_repo, monkeypatch, capsys):
        root = git_repo("staged-merged")
        seed(root, {"a.c": "a"}, {})
        git(root, "checkout", "-q", "-b", "side")
        (root / "a.c").write_text("a, side")
        git(root, "commit", "-q", "-a", "-m", "side")
        git(root, "checkout", "-q", "main")
        (root / "c.c").write_text("main")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "main")
        (root / "a.c").write_text("a, staged")
        git(root, "add", "a.c")

        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 3
        assert "a.c" in capsys.readouterr().err
        assert checkout_state(root) == before

    def test_a_staged_change_elsewhere_stays_staged_and_out_of_the_merge(self, git_repo, monkeypatch):
        root = git_repo("staged-elsewhere")
        seed(root, {"a.c": "a", "d.c": "d"}, {})
        diverge(root, "b.c", "c.c")
        (root / "d.c").write_text("d, staged")
        git(root, "add", "d.c")
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        assert len(git(root, "log", "-1", "--format=%P").stdout.split()) == 2
        assert git(root, "status", "--porcelain").stdout == "M  d.c\n"
        assert git(root, "show", "HEAD:d.c").stdout == "d"
        assert load_citation_file(root).get(from_rendered("/b.c")) == record("side")

    @pytest.fixture
    def fake_gpg(self, tmp_path) -> Path:
        """A ``gpg.program`` that answers as gpg does: it signs with a made-up
        signature and calls every signature good, trusted at the level
        ``$FAKE_GPG_TRUST`` names (``FULLY`` when unset)."""
        program = tmp_path / "fake-gpg"
        program.write_text(
            "#!/bin/sh\ncat >/dev/null\n"
            "case \" $* \" in *\" --verify \"*)\n"
            "  printf '\\n[GNUPG:] GOODSIG 0123456789ABCDEF Tester\\n[GNUPG:] TRUST_%s 0 pgp\\n'"
            " \"${FAKE_GPG_TRUST:-FULLY}\"; exit 0;;\nesac\n"
            "printf '\\n[GNUPG:] SIG_CREATED D 1 8 00 0 X\\n' >&2\n"
            "printf -- '-----BEGIN PGP SIGNATURE-----\\n\\nmade-up\\n-----END PGP SIGNATURE-----\\n'\n"
        )
        program.chmod(0o755)
        return program

    def test_commit_gpgsign_signs_the_merge_commit(self, git_repo, monkeypatch, fake_gpg):
        root = build_conflicted_repo(git_repo)
        git(root, "config", "commit.gpgSign", "true")
        git(root, "config", "gpg.program", str(fake_gpg))
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        header = "gpgsig-sha256" if len(git(root, "rev-parse", "HEAD").stdout.strip()) == 64 else "gpgsig"
        assert f"{header} -----BEGIN PGP SIGNATURE-----" in git(root, "cat-file", "commit", "HEAD").stdout

    @pytest.mark.parametrize("gpg_sign", ["true", "false"], ids=["gpgsign", "no-gpgsign"])
    @pytest.mark.parametrize("side_signed", [True, False], ids=["signed-side", "unsigned-side"])
    def test_merge_verify_signatures_checks_the_other_branch(
        self, git_repo, monkeypatch, fake_gpg, side_signed, gpg_sign
    ):
        root = build_conflicted_repo(git_repo)
        git(root, "config", "gpg.program", str(fake_gpg))
        if side_signed:
            git(root, "checkout", "-q", "side")
            git(root, "commit", "-q", "--amend", "--no-edit", "-S")
            git(root, "checkout", "-q", "main")
        git(root, "config", "merge.verifySignatures", "true")
        git(root, "config", "commit.gpgSign", gpg_sign)

        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == (0 if side_signed else 3)
        if side_signed:
            assert git(root, "rev-parse", "HEAD^2").stdout == git(root, "rev-parse", "side").stdout
        else:
            assert checkout_state(root) == before

    @pytest.mark.parametrize("min_trust, code", [(None, 3), ("undefined", 0)], ids=["marginal", "undefined"])
    def test_merge_verify_signatures_asks_the_trust_git_merge_asks(
        self, git_repo, monkeypatch, fake_gpg, min_trust, code
    ):
        # git merge wants at least marginal trust unless gpg.minTrustLevel says otherwise.
        root = build_conflicted_repo(git_repo)
        git(root, "config", "gpg.program", str(fake_gpg))
        git(root, "checkout", "-q", "side")
        git(root, "commit", "-q", "--amend", "--no-edit", "-S")
        git(root, "checkout", "-q", "main")
        git(root, "config", "merge.verifySignatures", "true")
        if min_trust:
            git(root, "config", "gpg.minTrustLevel", min_trust)
        monkeypatch.setenv("FAKE_GPG_TRUST", "UNDEFINED")

        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == code
        assert (checkout_state(root) == before) == bool(code)

    def test_a_signing_failure_moves_nothing(self, git_repo, monkeypatch):
        root = build_conflicted_repo(git_repo)
        git(root, "config", "commit.gpgSign", "true")
        git(root, "config", "gpg.program", "false")

        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 3
        assert checkout_state(root) == before

    def test_a_cited_name_with_a_carriage_return_survives_a_merge(self, git_repo, monkeypatch):
        root = git_repo("cr-name")
        seed(root, {"a.c": "a", "a\rb.c": "cr"}, {"/a\rb.c": "cr"})
        diverge(root, "b.c", "c.c")
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        cf = load_citation_file(root)
        assert cf.get(from_rendered("/a\rb.c")) == record("cr")
        assert cf.get(from_rendered("/b.c")) == record("side")
        assert git(root, "status", "--porcelain").stdout == ""

    @pytest.mark.parametrize("name", ["we\\ird.c", os.fsdecode(b"bad\xff.c")], ids=["backslash", "non-utf8"])
    def test_an_uncited_odd_name_does_not_stop_a_merge(self, git_repo, monkeypatch, name):
        root = git_repo("odd-name")
        seed(root, {"a.c": "a", name: "odd"}, {})
        diverge(root, "b.c", "c.c")
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        assert load_citation_file(root).get(from_rendered("/b.c")) == record("side")
        assert (root / name).read_text() == "odd"
        assert git(root, "status", "--porcelain").stdout == ""
        assert len(git(root, "log", "-1", "--format=%P").stdout.split()) == 2

    @pytest.mark.parametrize("kind, mode", [("executable", "100755"), ("symlink", "100644")])
    def test_the_merged_citation_file_is_a_regular_file_keeping_its_x_bit(self, git_repo, monkeypatch, kind, mode):
        # A symlink whose target is citation JSON reads as a citation file at
        # a revision; the merge commits the merged bytes as a regular file.
        root = git_repo(f"merge-{kind}")
        seed(root, {"a.c": "a"}, {})
        if kind == "executable":
            (root / "citation.cite").chmod(0o755)
            git(root, "commit", "-q", "-am", "executable")
        diverge(root, "b.c", "c.c")
        if kind == "executable":  # both heads edit the file, so the merged bytes are gitcite's, not git's
            store_citation_file(root, load_citation_file(root).with_entry(from_rendered("/c.c"), record("main")))
            git(root, "commit", "-q", "-am", "cite c.c")
        else:
            git(root, "checkout", "-q", "side")
            text = (root / "citation.cite").read_text()
            (root / "citation.cite").unlink()
            (root / "citation.cite").symlink_to(text)
            git(root, "commit", "-q", "-am", "a symlink")
            git(root, "checkout", "-q", "main")
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 0
        assert git(root, "ls-tree", "HEAD", "citation.cite").stdout.startswith(f"{mode} blob "), kind
        assert load_citation_file(root).get(from_rendered("/b.c")) == record("side")
        assert git(root, "status", "--porcelain").stdout == ""
        assert main(["validate"]) == 0, kind


def _cli_env(**extra: str) -> dict[str, str]:
    """The environment for a ``gitcite`` process that imports this checkout's package."""
    return {**os.environ, "PYTHONPATH": str(Path(gitcite.__file__).resolve().parent.parent), **extra}


class TestValidate:
    def test_fresh_init_validates_clean(self, git_repo, monkeypatch):
        root = git_repo(origin="https://example.com/alice/proj.git")
        (root / "a.c").write_text("x")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "first")
        monkeypatch.chdir(root)
        assert main(["init"]) == 0
        assert main(["validate"]) == 0

    def test_dangling_key_is_reported_with_its_path(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"kept.c": "x"}, {})
        store_citation_file(
            root, load_citation_file(root).with_entry(from_rendered("/gone.c"), record("g"))
        )
        monkeypatch.chdir(root)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "dangling_key" in out and "/gone.c" in out

    def test_issues_are_printed_in_key_order_whatever_the_file_order(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a": "x"}, {})
        obj = record_to_obj(record("r"))
        by_hand = {"/z.c": obj, "/a/": obj, "/": obj, "/m.c": obj}  # /a/ names the file /a
        (root / "citation.cite").write_text(json.dumps(by_hand, indent=2) + "\n", encoding="utf-8")
        monkeypatch.chdir(root)
        assert main(["validate"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "kind_mismatch: /a/ (key is a directory, tree has a file)",
            "dangling_key: /m.c (no such path in the tree)",
            "dangling_key: /z.c (no such path in the tree)",
        ]
        assert "is not in canonical form" in err

    def test_git_is_never_cited_in_a_linked_worktree(self, git_repo, monkeypatch, capsys):
        # There .git is a file naming the repository, and git never tracks it.
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        linked = root.parent / "linked"
        git(root, "worktree", "add", "-q", str(linked))
        assert (linked / ".git").is_file()
        monkeypatch.chdir(linked)
        assert main(["add", ".git", "--field", "owner=X"]) == 1
        assert load_citation_file(linked) == load_citation_file(root)
        store_citation_file(linked, load_citation_file(linked).with_entry(from_rendered("/.git"), record("g")))
        capsys.readouterr()
        assert main(["validate"]) == 1
        assert "dangling_key: /.git" in capsys.readouterr().out


class TestCliPlumbing:
    def test_usage_errors_exit_2(self, capsys):
        assert main(["definitely-not-a-command"]) == 2
        assert capsys.readouterr() == (
            "", "gitcite: unknown command 'definitely-not-a-command'; 'gitcite -h' lists the commands\n"
        )

    @staticmethod
    def _loaded_by_importing_the_cli(module: str) -> bool:
        src = str(Path(gitcite.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, gitcite.cli; print({module!r} in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    def test_importing_the_cli_loads_no_code_generators_and_no_subprocess(self):
        # dataclasses pulls in inspect, ast, dis and tokenize; subprocess pulls in
        # selectors and signal; pathlib pulls in fnmatch, urllib.parse and
        # ipaddress; argparse pulls in gettext. Only what importing the CLI
        # adds is checked, and ``-S`` keeps ``site`` from loading typing and
        # pathlib at start-up.
        src = str(Path(gitcite.__file__).resolve().parent.parent)
        script = "import sys; before = set(sys.modules); import gitcite.cli; print(*set(sys.modules) - before)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "gitcite.cli" in added
        assert not added & {"dataclasses", "inspect", "subprocess", "typing", "pathlib", "urllib", "argparse", "gettext"}

    @staticmethod
    def _run_without_git(root: Path, argv: list[str]) -> str:
        """Run ``gitcite argv`` at ``root`` in a new interpreter, which must
        succeed without loading ``subprocess``, so without running git; its
        stdout."""
        script = (
            "import sys; before = 'subprocess' in sys.modules; from gitcite.cli import main; "
            f"code = main({argv!r}); print(before, 'subprocess' in sys.modules, file=sys.stderr); "
            "sys.exit(code)"
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stderr.split()
        assert after == before  # loaded only if the interpreter had loaded it at start-up
        return proc.stdout

    def test_gen_in_a_checkout_runs_no_git_and_never_loads_subprocess(self, git_repo):
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {"/src/": "src"})
        assert record("src").owner in self._run_without_git(root, ["gen", "src/a.c"])

    @pytest.mark.parametrize(
        "argv",
        [["add", "a.c", "--field", "owner=X"], ["modify", ".", "--field", "owner=X"], ["del", "."], ["validate"]],
        ids=["add", "modify", "del", "validate"],
    )
    def test_edits_and_validate_in_a_checkout_run_no_git_and_never_load_subprocess(self, git_repo, argv):
        # Run from src/, so the walk up to the top is covered too.
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {"/src/": "src"})
        self._run_without_git(root / "src", argv)

    def test_importing_the_cli_leaves_urllib_unloaded(self):
        # Only ``gen --remote`` needs urllib.request, which drags in ssl and http.client.
        assert not self._loaded_by_importing_the_cli("urllib.request")

    def test_every_public_name_resolves(self):
        for name in gitcite.__all__:
            getattr(gitcite, name)
        src = str(Path(gitcite.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "from gitcite import *"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv, cites, code",
        [
            (["gen", "src/a.c", "--format", "json"], {"/src/": "src"}, 0),
            (["validate"], {"/gone.c": "gone"}, 1),
            (["nope"], {}, 2),
            (["gen", "src/a.c"], None, 3),
        ],
        ids=["ok", "domain", "usage", "environment"],
    )
    def test_each_exit_code_reaches_the_process(self, git_repo, argv, cites, code):
        # As a shell runs it: `python -m gitcite.cli`, which exits through cli.run.
        root = git_repo()
        if cites is None:  # no citation file
            (root / "src").mkdir()
            (root / "src" / "a.c").write_text("a")
        else:
            seed(root, {"src/a.c": "a"}, cites)
        proc = subprocess.run(
            [sys.executable, "-m", "gitcite.cli", *argv], cwd=root, env=_cli_env(), capture_output=True, text=True,
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert (record_from_obj(json.loads(proc.stdout)), proc.stderr) == (record("src"), "")
        elif code == 1:
            assert "dangling_key: /gone.c" in proc.stdout
        else:
            assert proc.stdout == "" and proc.stderr.startswith("gitcite: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("entry", ["main", "-m"])
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_a_closed_stdout_exits_quietly(self, git_repo, unbuffered, entry):
        # As in `gitcite gen src/a.c | true`: the reader is gone before gitcite
        # writes. Unbuffered, the print fails; buffered, the flush does. The
        # process entry point exits through cli.run, after freezing the heap.
        root = git_repo()
        seed(root, {"src/a.c": "a"}, {"/src/": "src"})
        script = "import sys; from gitcite.cli import main; sys.exit(main(['gen', 'src/a.c']))"
        argv = ["-c", script] if entry == "main" else ["-m", "gitcite.cli", "gen", "src/a.c"]
        with subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=_cli_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")

    def test_missing_citation_file_is_an_environment_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "."]) == 3

    @staticmethod
    def _assert_one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("gitcite: ") and err.count("\n") == 1, err
        return err

    def test_copy_onto_a_directory_symlink_is_a_destination_collision(self, git_repo, monkeypatch, capsys):
        # The cited tree leaves directory symlinks out, so only the check of
        # the filesystem entry at the destination catches this one.
        src = git_repo("src")
        seed(src, {"sub/f.c": "f"}, {})
        dst = git_repo("dst")
        seed(dst, {"app.c": "a"}, {})
        (dst / "target").mkdir()
        (dst / "linkdir").symlink_to(dst / "target", target_is_directory=True)
        before = (dst / "citation.cite").read_text()
        monkeypatch.chdir(dst)
        assert main(["copy", "../src", "sub/", "linkdir/"]) == 1
        self._assert_one_line_error(capsys)
        assert (dst / "citation.cite").read_text() == before
        assert not (dst / "target" / "f.c").exists()

    @pytest.mark.parametrize("argv", [["gen", "a.c"], ["validate"]])
    def test_a_citation_file_that_is_not_utf8_is_an_environment_error(self, argv, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        (root / "citation.cite").write_bytes(b'{"/": "\xff"}')
        monkeypatch.chdir(root)
        assert main(argv) == 3
        assert str(root / "citation.cite") in self._assert_one_line_error(capsys)

    def test_a_failed_write_leaves_the_citation_file_and_no_temporary_file(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        before = (root / "citation.cite").read_bytes()
        listing = sorted(os.listdir(root))

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "owner=X"]) == 3
        assert "No space left" in self._assert_one_line_error(capsys)
        assert (root / "citation.cite").read_bytes() == before
        assert sorted(os.listdir(root)) == listing

    def test_a_write_keeps_the_permission_bits(self, git_repo, monkeypatch):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        (root / "citation.cite").chmod(0o640)
        monkeypatch.chdir(root)
        assert main(["add", "a.c", "--field", "owner=X"]) == 0
        assert (root / "citation.cite").stat().st_mode & 0o777 == 0o640
        assert load_citation_file(root).get(from_rendered("/a.c")).owner == "X"


class TestTheCheckoutTop:
    """The citation file is ``citation.cite`` at the top of the git worktree
    holding the cwd. A file of that name below the top is an ordinary cited
    file, and outside a checkout no command but ``gen --remote`` runs."""

    NESTED = "not a citation file"

    def nested(self, git_repo, name: str = "repo") -> Path:
        root = git_repo(name)
        seed(root, {"core/a.c": "a", "core/citation.cite": self.NESTED}, {"/core/citation.cite": "nested"})
        return root

    def test_a_nested_citation_file_is_cited_not_read(self, git_repo, monkeypatch, capsys):
        root = self.nested(git_repo)
        monkeypatch.chdir(root / "core")
        assert main(["gen", "a.c", "--format", "json"]) == 0
        in_worktree = capsys.readouterr().out
        assert record_from_obj(json.loads(in_worktree)) == record("root")
        assert main(["gen", "a.c", "--format", "json", "--version", "HEAD"]) == 0
        assert capsys.readouterr().out == in_worktree
        assert main(["gen", "citation.cite", "--format", "json"]) == 0
        assert record_from_obj(json.loads(capsys.readouterr().out)) == record("nested")
        assert main(["add", "a.c", "--field", "owner=X"]) == 0
        assert load_citation_file(root).get(from_rendered("/core/a.c")).owner == "X"
        assert (root / "core" / "citation.cite").read_text() == self.NESTED
        assert main(["validate"]) == 0

    def test_copy_keeps_a_nested_citation_file_and_leaves_the_top_one(self, git_repo, monkeypatch):
        src = self.nested(git_repo, "src")
        dst = git_repo("dst")
        seed(dst, {"app.c": "a"}, {})
        monkeypatch.chdir(dst)
        assert main(["copy", "../src", "core/", "third/"]) == 0
        assert (dst / "third" / "citation.cite").read_text() == self.NESTED
        assert load_citation_file(dst).get(from_rendered("/third/citation.cite")) == record("nested")
        assert main(["copy", str(src), "/", "whole/"]) == 0
        assert not (dst / "whole" / "citation.cite").exists()
        assert (dst / "whole" / "core" / "citation.cite").read_text() == self.NESTED
        assert main(["validate"]) == 0

    def test_a_subdirectory_of_a_linked_worktree(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"sub/a.c": "a"}, {"/sub/": "sub"})
        linked = root.parent / "linked"
        git(root, "worktree", "add", "-q", str(linked))
        monkeypatch.chdir(linked / "sub")
        for version in ([], ["--version", "HEAD"]):
            assert main(["gen", "a.c", "--format", "json", *version]) == 0
            assert record_from_obj(json.loads(capsys.readouterr().out)) == record("sub")
        assert main(["add", "a.c", "--field", "owner=X"]) == 0
        assert load_citation_file(linked).get(from_rendered("/sub/a.c")).owner == "X"
        assert load_citation_file(root).get(from_rendered("/sub/a.c")) is None
        assert main(["validate"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["gen", "."], ["gen", ".", "--version", "HEAD"], ["add", "a.c"], ["validate"], ["init"], ["merge", "side"],
         ["copy", "../elsewhere", "/", "new/"]],
        ids=["gen", "gen-version", "add", "validate", "init", "merge", "copy"],
    )
    def test_outside_a_checkout_even_a_citation_file_is_not_read(self, tmp_path, monkeypatch, capsys, argv):
        store_citation_file(tmp_path, CitationFile.single(record("root")))
        (tmp_path / "a.c").write_text("a")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"gitcite: {tmp_path.resolve()} is not inside a git repository\n"

    def test_gen_remote_reads_a_file_url_outside_a_checkout(self, tmp_path, monkeypatch, capsys):
        store_citation_file(tmp_path, CitationFile({ROOT: record("root"), from_rendered("/lib/"): record("lib")}))
        monkeypatch.chdir(tmp_path)
        url = (tmp_path / "citation.cite").as_uri()
        assert main(["gen", "lib/x.c", "--remote", url, "--format", "json"]) == 0
        assert record_from_obj(json.loads(capsys.readouterr().out)) == record("lib")

    def test_a_checkout_without_the_citation_file_names_the_file_and_the_top(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        (root / "sub").mkdir()
        monkeypatch.chdir(root / "sub")
        assert main(["gen", "."]) == 3
        assert capsys.readouterr().err == (
            f"gitcite: no citation.cite at {root.resolve()}; run 'gitcite init' there first\n"
        )

    @pytest.mark.parametrize(
        "argv", [["gen", "a.c"], ["add", "a.c"], ["del", "/"], ["validate"], ["init"], ["merge", "side"]],
        ids=["gen", "add", "del", "validate", "init", "merge"],
    )
    @pytest.mark.parametrize("entry", ["symlink", "dangling-symlink", "directory"])
    def test_a_citation_file_that_is_not_a_regular_file_is_left_alone(
        self, git_repo, monkeypatch, capsys, argv, entry
    ):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        top = root / "citation.cite"
        text = top.read_text()
        if entry == "directory":
            top.unlink()
            top.mkdir()
        else:
            (root / "real.cite").write_text(text)
            top.unlink()
            top.symlink_to("real.cite" if entry == "symlink" else "missing.cite")
        monkeypatch.chdir(root)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"gitcite: {root.resolve()}/citation.cite is not a regular file\n"
        if entry == "directory":
            assert top.is_dir() and not any(top.iterdir())
        else:
            assert os.readlink(top) == ("real.cite" if entry == "symlink" else "missing.cite")
            assert (root / "real.cite").read_text() == text


class TestOneWriter:
    """Every edit of the citation file is one read-edit-write under the lock
    file ``citation.cite.lock``, and one that changes no record writes nothing."""

    LOCKED = (
        "gitcite: {} exists: another gitcite command is writing citation.cite; "
        "if none is running, remove the lock file\n"
    )

    def test_a_write_that_changes_nothing_keeps_the_file(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        target = root / "citation.cite"
        owner = load_citation_file(root).get(ROOT).owner
        monkeypatch.chdir(root)
        for write in (
            lambda: main(["modify", ".", "--field", f"owner={owner}"]),
            lambda: gitadapter.sync_on_commit(root, [], []),
        ):
            before = os.stat(target)
            write()
            after = os.stat(target)
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        # So a hand edit that changes no record keeps its bytes, and validate still says so.
        by_hand = json.dumps(json.loads(target.read_text(encoding="utf-8"))).encode()
        target.write_bytes(by_hand)
        assert main(["modify", ".", "--field", f"owner={owner}"]) == 0
        assert target.read_bytes() == by_hand
        capsys.readouterr()
        assert main(["validate"]) == 0
        assert "is not in canonical form" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["add", "a.c", "--field", "owner=X"],
            ["del", "sub/"],
            ["modify", ".", "--field", "owner=X"],
            ["merge", "side", "--ours"],
            ["copy", "../src", "lib/", "vendor/"],
        ],
        ids=["add", "del", "modify", "merge", "copy"],
    )
    def test_a_lock_stops_every_writer_and_stays(self, argv, git_repo, monkeypatch, capsys):
        seed(git_repo("src"), {"lib/l.c": "l"}, {})
        root = git_repo()
        seed(root, {"a.c": "a", "sub/s.c": "s"}, {"/sub/": "sub"})
        git(root, "branch", "side")
        lock = root / "citation.cite.lock"
        lock.touch()
        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(argv) == 3
        assert capsys.readouterr().err == self.LOCKED.format(lock)
        assert checkout_state(root) == before
        assert lock.exists() and not (root / "vendor").exists()

    def test_a_lock_stops_init_too(self, git_repo, monkeypatch, capsys):
        root = git_repo(origin="https://example.com/alice/proj.git")
        lock = root / "citation.cite.lock"
        lock.touch()
        monkeypatch.chdir(root)
        assert main(["init"]) == 3
        assert capsys.readouterr() == ("", self.LOCKED.format(lock))
        assert git(root, "status", "--porcelain").stdout == "?? citation.cite.lock\n"
        assert lock.read_bytes() == b""

    def test_a_killed_writer_leaves_only_the_lock_holding_the_new_file(self, git_repo, monkeypatch, capsys):
        # The new bytes go into the lock, which is renamed over citation.cite:
        # killed at the rename, a writer leaves no other file behind.
        root = git_repo()
        seed(root, {"a.c": "a", "b.c": "b"}, {})
        before = (root / "citation.cite").read_bytes()
        killed_at_the_rename = (
            "import os, signal, sys\n"
            "os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "from gitcite.cli import main\n"
            "sys.exit(main(['add', 'a.c', '--field', 'owner=X']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", killed_at_the_rename], cwd=root, env=_cli_env(), capture_output=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        lock = root / "citation.cite.lock"
        assert (root / "citation.cite").read_bytes() == before
        assert git(root, "status", "--porcelain", "--untracked-files=all").stdout == "?? citation.cite.lock\n"
        assert gitadapter.decode_citation_file(lock.read_bytes(), str(lock)).get(from_rendered("/a.c")).owner == "X"
        monkeypatch.chdir(root)
        assert main(["add", "b.c", "--field", "owner=Y"]) == 3
        assert capsys.readouterr().err == self.LOCKED.format(lock)
        assert (root / "citation.cite").read_bytes() == before

    def test_a_lock_stops_the_commit_time_sync_and_no_reader(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "a"}, {"/a.c": "a"})
        (root / "citation.cite.lock").touch()
        before = (root / "citation.cite").read_bytes()
        with pytest.raises(IoFailure, match="citation.cite.lock exists"):
            gitadapter.sync_on_commit(root, [], [from_rendered("/a.c")])
        assert (root / "citation.cite").read_bytes() == before
        monkeypatch.chdir(root)
        assert main(["gen", "a.c"]) == 0
        assert main(["validate"]) == 0

    def test_a_writer_inside_another_writer_is_refused(self, git_repo, monkeypatch, capsys):
        # The inner add runs between the outer modify's read and its write.
        # Without the lock it succeeds, and the outer write then drops its key.
        root = git_repo()
        seed(root, {"a.c": "a", "b.c": "b"}, {})
        monkeypatch.chdir(root)
        build, inner = cli._build_record, []

        def build_after_another_writer(*args):
            monkeypatch.setattr(cli, "_build_record", build)  # the inner add builds as usual
            inner.append(main(["add", "b.c", "--field", "owner=inner"]))
            return build(*args)

        monkeypatch.setattr(cli, "_build_record", build_after_another_writer)
        assert main(["modify", ".", "--field", "owner=outer"]) == 0
        assert inner == [3]
        assert capsys.readouterr().err == self.LOCKED.format(root / "citation.cite.lock")
        cf = load_citation_file(root)
        assert cf.get(ROOT).owner == "outer" and from_rendered("/b.c") not in cf
        assert not (root / "citation.cite.lock").exists()

    def test_racing_writers_keep_every_key_they_report(self, git_repo):
        # Whatever the interleaving, each add either exits 0 and its key is
        # in the file, or finds the lock and exits 3.
        root = git_repo()
        names = [f"f{i}.c" for i in range(4)]
        seed(root, dict.fromkeys(names, "x"), {})
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-m", "gitcite.cli", "add", name, "--field", f"owner={name}"],
                    cwd=root, env=_cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                ))
                for name in names
            ]
            results = [(proc.communicate(timeout=60)[1].decode(), proc.returncode) for proc in procs]
        cited = {str(key) for key in load_citation_file(root)}
        for name, (err, code) in zip(names, results):
            assert (code, err) in ((0, ""), (3, self.LOCKED.format(root / "citation.cite.lock")))
            assert (f"/{name}" in cited) == (code == 0)
        assert not (root / "citation.cite.lock").exists()


def hold_escape(root: Path, escape: bytes, key: bytes = b"/a.c") -> None:
    """Put the JSON ``escape`` at the end of ``key``'s owner in the worktree's
    citation file, as a hand edit or a tool other than gitcite could."""
    cite = root / "citation.cite"
    data = cite.read_bytes()
    start = data.index(b'"' + key + b'": {')
    owner = data.index(b'"owner": "', start) + len(b'"owner": "')
    cite.write_bytes(data[:owner] + data[owner:].replace(b'"', escape + b'"', 1))


class TestEveryFileReadCanBeWrittenBack:
    """A citation file is read only when every text in it can be written back
    as UTF-8: a ``\\u`` escape of a lone surrogate, which JSON allows, is
    refused wherever the file comes from, in one line that names the file,
    the key and the field. Nothing is written."""

    FIELD = "/a.c: field 'owner' is not UTF-8"

    def test_a_merge_refuses_a_branch_holding_one_and_writes_nothing(self, git_repo, monkeypatch, capsys):
        root = git_repo()
        seed(root, {"a.c": "a", "b.c": "b"}, {"/a.c": "a"})
        git(root, "checkout", "-q", "-b", "side")
        hold_escape(root, rb"\udcff")
        git(root, "commit", "-q", "-am", "side")
        git(root, "checkout", "-q", "main")
        (root / "b.c").write_text("main")
        git(root, "commit", "-q", "-am", "main")
        before = checkout_state(root)
        monkeypatch.chdir(root)
        assert main(["merge", "side", "--ours"]) == 1
        assert capsys.readouterr() == ("", f"gitcite: citation.cite at revision 'side': {self.FIELD}\n")
        assert checkout_state(root) == before
        assert not (root / "citation.cite.lock").exists()
        assert not list((root / ".git").glob("MERGE_*"))

    def test_a_merge_refuses_an_edited_record_holding_one(self, git_repo, monkeypatch, capsys):
        # The merged file is written by the encoder, so the edit prompt cannot put the byte 0xff in a commit.
        root = build_conflicted_repo(git_repo)
        before = checkout_state(root)
        monkeypatch.chdir(root)
        monkeypatch.setattr("sys.stdin", io.StringIO('e {"owner": "\\udcff", "repo_name": "r", "locator": "u"}\n'))
        assert main(["merge", "side", "--interactive"]) == 1
        assert capsys.readouterr().err == "gitcite: /shared.c: field 'owner' is not UTF-8\n"
        assert checkout_state(root) == before
        assert not (root / "citation.cite.lock").exists()

    @pytest.mark.parametrize(
        "argv", [["gen", "a.c"], ["add", "b.c"], ["del", "a.c"], ["validate"]], ids=["gen", "add", "del", "validate"]
    )
    @pytest.mark.parametrize("escape", [rb"\udcff", rb"\ud800"], ids=["escaped-byte", "lone-surrogate"])
    def test_a_worktree_file_holding_one_is_refused(self, git_repo, monkeypatch, capsys, argv, escape):
        root = git_repo()
        seed(root, {"a.c": "a", "b.c": "b"}, {"/a.c": "a"})
        hold_escape(root, escape)
        before = (root / "citation.cite").read_bytes()
        monkeypatch.chdir(root)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"gitcite: {root / 'citation.cite'}: {self.FIELD}\n")
        assert (root / "citation.cite").read_bytes() == before

    def test_a_copy_from_a_source_holding_one_leaves_nothing(self, git_repo, monkeypatch, capsys):
        src = git_repo("src")
        seed(src, {"a.c": "a", "core/f.c": "f"}, {"/a.c": "a", "/core/": "core"})
        hold_escape(src, rb"\udcff")
        git(src, "commit", "-q", "-am", "escape")
        dst = git_repo("dst")
        seed(dst, {"app.c": "a"}, {})
        before = checkout_state(dst)
        monkeypatch.chdir(dst)
        assert main(["copy", str(src), "core/", "vendor/"]) == 1
        assert capsys.readouterr() == ("", f"gitcite: citation.cite at the HEAD of {str(src)!r}: {self.FIELD}\n")
        assert checkout_state(dst) == before
        assert not (dst / "vendor").exists()

    def test_validate_warns_about_a_crlf_file(self, git_repo, monkeypatch, capsys):
        # The file is compared as bytes, so line ends that git's autocrlf wrote are not canonical.
        root = git_repo()
        seed(root, {"a.c": "a"}, {})
        cite = root / "citation.cite"
        cite.write_bytes(cite.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.chdir(root)
        assert main(["validate"]) == 0
        assert capsys.readouterr() == (
            "citation file is consistent with the working tree\n",
            f"{cite} is not in canonical form; was it edited by hand?\n",
        )

    @pytest.mark.parametrize(
        "argv, file, error",
        [
            (["gen", os.fsdecode(b"no\xffpe.c")], False, "/no\\xffpe.c is not in the tree"),
            (["del", os.fsdecode(b"no\xffpe.c")], True, "/no\\xffpe.c has no citation"),
        ],
        ids=["gen", "del"],
    )
    def test_a_name_that_is_not_utf8_shows_each_byte_one_way(self, git_repo, monkeypatch, capsys, argv, file, error):
        root = git_repo()
        seed(root, {argv[1]: "x"} if file else {}, {})
        monkeypatch.chdir(root)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"gitcite: {error}\n")

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (b'"extras": {}', rb'"extras": {"x\ud800": "v"}', "/a.c: field 'x\\ud800' is not UTF-8"),
            (b'"/a.c"', rb'"/bad\udcff.c"', "/bad\\xff.c cannot be cited: its name is not UTF-8"),
        ],
        ids=["extras-name", "key"],
    )
    def test_what_is_refused_is_named_in_the_message(self, git_repo, monkeypatch, capsys, old, new, error):
        # A lone surrogate that stands for a byte shows as \xNN, any other as \uXXXX.
        root = git_repo()
        seed(root, {"a.c": "a"}, {"/a.c": "a"})
        cite = root / "citation.cite"
        data = cite.read_bytes()
        cite.write_bytes(data[: data.index(b'"/a.c"')] + data[data.index(b'"/a.c"') :].replace(old, new, 1))
        monkeypatch.chdir(root)
        assert main(["gen", "a.c"]) == 1
        assert capsys.readouterr() == ("", f"gitcite: {cite}: {error}\n")
