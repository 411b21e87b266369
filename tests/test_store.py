from __future__ import annotations

import random

import pytest

from gitcite import CitationFile, TreeSnapshot, resolve, validate
from gitcite.errors import (
    BranchExists,
    DestinationCollision,
    EditConflict,
    NoCommonAncestor,
    SourceVersionUnknown,
    SubtreeMissing,
    UnknownVersion,
    UnresolvedConflict,
)
from gitcite.paths import ROOT, from_rendered
from gitcite.ops import ConflictReport, choose_left, scripted_resolver
from gitcite.store import CiteEdit, Repository, TreeEdit, copy_cite, fork_cite, gen_cite

import randgen
from support import record, resolve_by_walking, tree


def repo_with(files: tuple[str, ...], cites: dict[str, str] = ()) -> Repository:
    repo = Repository.create("proj", record("root"), tree=tree(*files))
    if cites:
        edits = [CiteEdit.add(from_rendered(k), record(tag)) for k, tag in cites.items()]
        repo.commit("main", cite_edits=edits)
    return repo


class TestCommit:
    def test_identity_commit_keeps_the_citation_file(self):
        from gitcite.fileformat import serialize

        repo = repo_with(("/a.c",), {"/a.c": "a"})
        before = repo.head("main")
        after = repo.commit("main")
        assert serialize(after.cf) == serialize(before.cf)
        assert after.parents == (before.id,)

    def test_rename_rewrites_keys_by_prefix(self):
        repo = repo_with(("/a/x.c", "/a/y.c"), {"/a/": "a", "/a/x.c": "x"})
        version = repo.commit("main", [TreeEdit.rename(from_rendered("/a/"), from_rendered("/b/"))])
        assert set(map(str, version.cf.keys())) == {"/", "/b/", "/b/x.c"}
        moved = from_rendered("/b/x.c")
        assert resolve(version.cf, version.tree, moved) == record("x")
        assert resolve_by_walking(version.cf, moved) == record("x")

    def test_file_rename_moves_its_key(self):
        repo = repo_with(("/old.c",), {"/old.c": "o"})
        version = repo.commit("main", [TreeEdit.rename(from_rendered("/old.c"), from_rendered("/new.c"))])
        assert version.cf.get(from_rendered("/new.c")) == record("o")
        assert from_rendered("/old.c") not in version.cf

    def test_deleting_a_cited_file_prunes_its_entry(self):
        repo = repo_with(("/a.c", "/b.c"), {"/a.c": "a"})
        version = repo.commit("main", [TreeEdit.delete(from_rendered("/a.c"))])
        assert from_rendered("/a.c") not in version.cf
        assert validate(version.cf, version.tree) == []

    def test_cite_edits_then_rename_in_one_commit(self):
        repo = repo_with(("/a/x.c",))
        version = repo.commit(
            "main",
            [TreeEdit.rename(from_rendered("/a/"), from_rendered("/b/"))],
            [CiteEdit.add(from_rendered("/a/x.c"), record("x"))],
        )
        assert version.cf.get(from_rendered("/b/x.c")) == record("x")

    def test_edit_conflict_on_missing_path(self):
        repo = repo_with(("/a.c",))
        with pytest.raises(EditConflict):
            repo.commit("main", [TreeEdit.delete(from_rendered("/ghost.c"))])

    def test_history_is_append_only(self):
        repo = repo_with(("/a.c",))
        first = repo.head("main")
        repo.commit("main", [TreeEdit.create(from_rendered("/b.c"), "d")])
        assert repo.versions[first.id] is first
        assert first.tree.contains(from_rendered("/a.c"))
        assert not first.tree.contains(from_rendered("/b.c"))


class TestBranch:
    def test_two_heads_share_a_parent_after_diverging(self):
        repo = repo_with(("/a.c",))
        base = repo.head_id("main")
        repo.add_branch("side", base)
        left = repo.commit("main", [TreeEdit.create(from_rendered("/l.c"), "l")])
        right = repo.commit("side", [TreeEdit.create(from_rendered("/r.c"), "r")])
        assert left.parents == (base,)
        assert right.parents == (base,)

    def test_branching_aliases_the_head(self):
        repo = repo_with(("/a.c",), {"/a.c": "a"})
        head = repo.head_id("main")
        repo.add_branch("side", head)
        assert repo.head_id("side") == head
        for path in repo.head("main").tree.paths():
            assert gen_cite(repo, repo.head_id("side"), path) == gen_cite(repo, head, path)

    def test_duplicate_branch_name(self):
        repo = repo_with(("/a.c",))
        with pytest.raises(BranchExists):
            repo.add_branch("main", repo.head_id("main"))
        with pytest.raises(UnknownVersion):
            repo.add_branch("other", "nope")


class TestCopyCite:
    def make_source(self) -> Repository:
        src = Repository.create(
            "lib", record("libroot"), tree=tree("/core/f2", "/core/deep/g.c", "/other.c")
        )
        src.commit("main", cite_edits=[CiteEdit.add(from_rendered("/core/"), record("core"))])
        return src

    def test_inherited_resolution_is_preserved_at_the_destination(self):
        src = self.make_source()
        dst = repo_with(("/app.c",))
        version = copy_cite(src, src.head_id("main"), from_rendered("/core/"), dst, "main", from_rendered("/vendor/"))
        f2 = from_rendered("/vendor/f2")
        assert resolve(version.cf, version.tree, f2) == record("core")
        src_head = src.head("main")
        assert resolve(src_head.cf, src_head.tree, from_rendered("/core/f2")) == record("core")

    def test_copying_an_uncited_subtree_adds_exactly_one_entry(self):
        src = Repository.create("lib", record("libroot"), tree=tree("/plain/f.c"))
        dst = repo_with(("/app.c",))
        before = set(dst.head("main").cf.keys())
        version = copy_cite(src, src.head_id("main"), from_rendered("/plain/"), dst, "main", from_rendered("/in/"))
        added = set(version.cf.keys()) - before
        assert {str(p) for p in added} == {"/in/"}
        assert version.cf.get(from_rendered("/in/")) == record("libroot")

    def test_every_copied_node_resolves_as_at_the_source(self):
        rng = random.Random(99)
        for _ in range(40):
            src_tree = randgen.rand_tree(rng, max_nodes=25)
            src = Repository.create("s", randgen.rand_record(rng), tree=src_tree)
            src.commit(
                "main",
                cite_edits=[
                    CiteEdit.add(p, r)
                    for p, r in randgen.rand_citation_file(rng, src_tree).items()
                    if not p.is_root
                ],
            )
            dirs = [p for p in src.head("main").tree.paths() if p.is_dir]
            subtree = rng.choice(dirs)
            dst = Repository.create("d", randgen.rand_record(rng), tree=randgen.rand_tree(rng, max_nodes=10))
            target = from_rendered("/imported/")
            version = copy_cite(src, src.head_id("main"), subtree, dst, "main", target)
            src_head = src.head("main")
            for node in src_head.tree.paths():
                if not node.is_within(subtree):
                    continue
                moved = node.rebased(subtree, target)
                assert resolve(version.cf, version.tree, moved) == resolve(
                    src_head.cf, src_head.tree, node
                )

    def test_errors(self):
        src = self.make_source()
        dst = repo_with(("/app.c",))
        with pytest.raises(SourceVersionUnknown):
            copy_cite(src, "nope", from_rendered("/core/"), dst, "main", from_rendered("/v/"))
        with pytest.raises(SubtreeMissing):
            copy_cite(src, src.head_id("main"), from_rendered("/ghost/"), dst, "main", from_rendered("/v/"))
        with pytest.raises(DestinationCollision):
            copy_cite(src, src.head_id("main"), from_rendered("/core/"), dst, "main", from_rendered("/app.c/"))


class TestMergeCite:
    def diverged(self) -> Repository:
        repo = repo_with(("/shared.c", "/doomed.c"), {"/shared.c": "base"})
        repo.add_branch("side", repo.head_id("main"))
        return repo

    def test_disjoint_edits_merge_to_the_union_without_conflicts(self):
        repo = self.diverged()
        repo.commit("main", cite_edits=[CiteEdit.add(from_rendered("/doomed.c"), record("l"))])
        repo.commit("side", [TreeEdit.create(from_rendered("/new.c"), "n")],
                    [CiteEdit.add(from_rendered("/new.c"), record("r"))])
        version, conflicts = repo.merge("main", "side")
        assert conflicts == []
        assert {str(k) for k in version.cf.keys()} == {"/", "/shared.c", "/doomed.c", "/new.c"}
        assert version.parents and len(version.parents) == 2

    def test_merging_a_branch_with_itself_changes_nothing(self):
        repo = self.diverged()
        head = repo.head("main")
        version, conflicts = repo.merge("main", "side")
        assert version is head
        assert conflicts == []

    def test_fast_forward_when_only_one_side_moved(self):
        repo = self.diverged()
        repo.commit("side", cite_edits=[CiteEdit.add(from_rendered("/doomed.c"), record("s"))])
        version, conflicts = repo.merge("main", "side")
        assert conflicts == []
        assert repo.head_id("main") == repo.head_id("side") == version.id

    def test_both_sides_add_different_records_at_one_new_key(self):
        repo = self.diverged()
        key = from_rendered("/doomed.c")
        repo.commit("main", cite_edits=[CiteEdit.add(key, record("l"))])
        repo.commit("side", cite_edits=[CiteEdit.add(key, record("r"))])
        version, conflicts = repo.merge("main", "side", scripted_resolver({str(key): "right"}))
        assert [(str(c.key), c.resolution) for c in conflicts] == [("/doomed.c", "chose_right")]
        assert version.cf.get(key) == record("r")

    def test_one_side_changed_a_key_wins_silently(self):
        repo = self.diverged()
        repo.commit("main", cite_edits=[CiteEdit.modify(from_rendered("/shared.c"), record("newer"))])
        repo.commit("side", [TreeEdit.create(from_rendered("/noise.c"), "n")])
        version, conflicts = repo.merge("main", "side")
        assert conflicts == []
        assert version.cf.get(from_rendered("/shared.c")) == record("newer")

    def test_a_one_sided_citation_delete_survives_the_merge(self):
        repo = self.diverged()
        repo.commit("main", cite_edits=[CiteEdit.delete(from_rendered("/shared.c"))])
        repo.commit("side", [TreeEdit.create(from_rendered("/noise.c"), "n")])
        version, conflicts = repo.merge("main", "side")
        assert conflicts == []
        assert from_rendered("/shared.c") not in version.cf

    def test_deleted_file_prunes_the_other_sides_entry_without_conflict(self):
        repo = self.diverged()
        repo.commit("main", [TreeEdit.delete(from_rendered("/doomed.c"))])
        repo.commit("side", cite_edits=[CiteEdit.add(from_rendered("/doomed.c"), record("r"))])
        version, conflicts = repo.merge("main", "side")
        assert conflicts == []
        assert from_rendered("/doomed.c") not in version.cf
        assert not version.tree.contains(from_rendered("/doomed.c"))

    def test_root_conflicts_like_any_key(self):
        repo = self.diverged()
        repo.commit("main", cite_edits=[CiteEdit.modify(ROOT, record("lroot"))])
        repo.commit("side", cite_edits=[CiteEdit.modify(ROOT, record("rroot"))])
        version, conflicts = repo.merge("main", "side", choose_left)
        assert [str(c.key) for c in conflicts] == ["/"]
        assert version.cf.get(ROOT) == record("lroot")

    def test_unresolved_conflict(self):
        repo = self.diverged()
        repo.commit("main", cite_edits=[CiteEdit.modify(from_rendered("/shared.c"), record("l"))])
        repo.commit("side", cite_edits=[CiteEdit.modify(from_rendered("/shared.c"), record("r"))])
        with pytest.raises(UnresolvedConflict):
            repo.merge("main", "side")

    @pytest.mark.parametrize(
        "main_edit, side_edit",
        [
            (TreeEdit.modify(from_rendered("/shared.c"), "ours"), TreeEdit.modify(from_rendered("/shared.c"), "theirs")),
            (TreeEdit.modify(from_rendered("/shared.c"), "ours"), TreeEdit.delete(from_rendered("/shared.c"))),
            (TreeEdit.create(from_rendered("/new.c"), "ours"), TreeEdit.create(from_rendered("/new.c"), "theirs")),
        ],
        ids=["content", "modify-delete", "add-add"],
    )
    def test_a_content_conflict_is_refused(self, main_edit, side_edit):
        repo = self.diverged()
        repo.commit("main", [main_edit])
        repo.commit("side", [side_edit])
        versions, branches = dict(repo.versions), dict(repo.branches)
        with pytest.raises(EditConflict, match=main_edit.path.segments[-1]):
            repo.merge("main", "side")
        assert repo.versions == versions and repo.branches == branches

    def test_no_common_ancestor(self):
        repo = repo_with(("/a.c",))
        orphan = repo._new_version((), TreeSnapshot(), CitationFile.single(record("x")))
        repo.branches["orphan"] = orphan.id
        with pytest.raises(NoCommonAncestor):
            repo.merge("main", "orphan")

    def test_merge_key_set_law(self):
        repo = self.diverged()
        repo.commit("main", [TreeEdit.delete(from_rendered("/doomed.c"))])
        repo.commit("side", cite_edits=[CiteEdit.add(from_rendered("/doomed.c"), record("r"))])
        left = repo.head("main")
        right = repo.head("side")
        version, _ = repo.merge("main", "side", choose_left)
        expected = {
            k for k in set(left.cf.keys()) | set(right.cf.keys()) if version.tree.contains(k)
        } | {ROOT}
        assert set(version.cf.keys()) == expected


def test_identical_sequences_produce_byte_identical_citation_files():
    from gitcite.fileformat import serialize

    def build() -> Repository:
        repo = repo_with(("/a.c", "/d/x.c"), {"/d/": "d"})
        repo.add_branch("side", repo.head_id("main"))
        repo.commit("main", cite_edits=[CiteEdit.modify(from_rendered("/d/"), record("dl"))])
        repo.commit("side", [TreeEdit.create(from_rendered("/d/y.c"), "y")],
                    [CiteEdit.modify(from_rendered("/d/"), record("dr"))])
        repo.merge("main", "side", scripted_resolver({"/d/": "right"}))
        return repo

    one, two = build(), build()
    assert serialize(one.head("main").cf) == serialize(two.head("main").cf)
    assert [serialize(v.cf) for v in one.versions.values()] == [
        serialize(v.cf) for v in two.versions.values()
    ]


class TestConflictReport:
    def test_requires_differing_records(self):
        with pytest.raises(ValueError):
            ConflictReport(ROOT, record("same"), record("same"))

    def test_resolution_classification(self):
        report = ConflictReport(ROOT, record("l"), record("r"))
        report.mark_resolved(record("l"))
        assert report.resolution == "chose_left"
        report.mark_resolved(record("r"))
        assert report.resolution == "chose_right"
        report.mark_resolved(record("fresh"))
        assert report.resolution == "replaced"
        assert report.record == record("fresh")


class TestForkCite:
    def test_fork_copies_history_and_resolution(self):
        repo = repo_with(("/a.c", "/b/x.c"), {"/b/": "b"})
        repo.commit("main", [TreeEdit.create(from_rendered("/c.c"), "c")])
        fork = fork_cite(repo)
        assert set(fork.versions) == repo.ancestor_ids(repo.head_id("main"))
        for vid in fork.versions:
            for path in repo.versions[vid].tree.paths():
                assert gen_cite(fork, vid, path) == gen_cite(repo, vid, path)

    def test_fork_keeps_the_source_version_order(self):
        repo = repo_with(("/a.c",))
        repo.add_branch("side", repo.head_id("main"))
        for i in range(6):
            repo.commit("main" if i % 2 else "side", [TreeEdit.create(from_rendered(f"/f{i}.c"), "d")])
        repo.merge("main", "side")
        repo.commit("side", [TreeEdit.create(from_rendered("/later.c"), "d")])  # not in main's history
        ancestors = repo.ancestor_ids(repo.head_id("main"))
        assert list(fork_cite(repo).versions) == [vid for vid in repo.versions if vid in ancestors]

    def test_fork_of_a_single_version_repo(self):
        repo = Repository.create("one", record("r"), tree=tree("/a.c"))
        fork = fork_cite(repo)
        assert len(fork.versions) == 1
        assert fork.head("main").cf == repo.head("main").cf

    def test_fork_isolation(self):
        repo = repo_with(("/a.c",))
        fork = fork_cite(repo)
        src_head = repo.head_id("main")
        fork.commit("main", [TreeEdit.create(from_rendered("/only-in-fork.c"), "d")])
        assert repo.head_id("main") == src_head
        assert from_rendered("/only-in-fork.c") not in repo.head("main").tree.paths()
        assert fork.head("main").tree.contains(from_rendered("/only-in-fork.c"))

    def test_fork_at_an_older_version(self):
        repo = repo_with(("/a.c",))
        old = repo.head_id("main")
        repo.commit("main", [TreeEdit.create(from_rendered("/later.c"), "d")])
        fork = fork_cite(repo, version_id=old)
        assert fork.head_id("main") == old
        assert len(fork.versions) == 1
        with pytest.raises(UnknownVersion):
            fork_cite(repo, version_id="bogus")
