"""The identity model's own rules, checked on small hand-made histories, and
the conflict report both merges hand back.

The git scenarios compare the adapter with this model, so these tests pin
what the model expects: keys follow file identities through renames,
copies and merges.
"""

from __future__ import annotations

import random

import pytest

from gitcite import CitationFile
from gitcite.errors import GitCiteError
from gitcite.fileformat import serialize
from gitcite.model import TreeSnapshot
from gitcite.paths import ROOT, from_rendered
from gitcite.ops import ConflictReport, apply_copy, merge_citation_files

import randgen
from identity_model import MergeRefused, Model, citation_file, covers, file_paths, resolved
from support import record, tree, tree_files, tree_paths


def repo_with(files: tuple[str, ...], cites: dict[str, str] = ()) -> Model:
    """A model whose first commit holds ``files``, and whose second cites ``cites``."""
    model = Model(record("root"))
    for rendered in files:
        model.write(from_rendered(rendered), rendered)
    model.commit()
    if cites:
        for rendered, tag in cites.items():
            model.cite(from_rendered(rendered), record(tag))
        model.commit()
    return model


def keys(model: Model) -> set[str]:
    return {str(k) for k in citation_file(model.work).keys()}


def test_a_key_covers_itself_and_what_its_directory_holds():
    assert covers(from_rendered("/a/"), from_rendered("/a/b/c"))
    assert not covers(from_rendered("/a/x.c"), from_rendered("/a/x.c/y"))
    assert covers(from_rendered("/a/x.c"), from_rendered("/a/x.c"))
    assert covers(ROOT, from_rendered("/anything"))


class TestCommit:
    def test_identity_commit_keeps_the_citation_file(self):
        model = repo_with(("/a.c",), {"/a.c": "a"})
        before, head = serialize(citation_file(model.work)), model.head
        model.commit()
        assert serialize(citation_file(model.work)) == before
        assert model.parents[model.head] == (head,)

    def test_rename_rewrites_keys_by_prefix(self):
        model = repo_with(("/a/x.c", "/a/y.c"), {"/a/": "a", "/a/x.c": "x"})
        model.move(from_rendered("/a/"), from_rendered("/b/"))
        model.commit()
        assert keys(model) == {"/", "/b/", "/b/x.c"}
        assert resolved(model.work, from_rendered("/b/x.c")) == record("x")
        assert resolved(model.work, from_rendered("/b/y.c")) == record("a")

    def test_file_rename_moves_its_key(self):
        model = repo_with(("/old.c",), {"/old.c": "o"})
        model.move(from_rendered("/old.c"), from_rendered("/new.c"))
        model.commit()
        assert citation_file(model.work).get(from_rendered("/new.c")) == record("o")
        assert keys(model) == {"/", "/new.c"}

    def test_deleting_a_cited_file_prunes_its_entry(self):
        model = repo_with(("/a.c", "/b.c", "/d/x.c"), {"/a.c": "a", "/d/": "d"})
        model.remove(from_rendered("/a.c"))
        model.remove(from_rendered("/d/x.c"))  # the last file of a cited directory
        model.commit()
        assert keys(model) == {"/"}
        assert file_paths(model.work) == ["/b.c"]

    def test_cite_edits_then_rename_in_one_commit(self):
        model = repo_with(("/a/x.c",))
        model.cite(from_rendered("/a/x.c"), record("x"))
        model.move(from_rendered("/a/"), from_rendered("/b/"))
        model.commit()
        assert citation_file(model.work).get(from_rendered("/b/x.c")) == record("x")

    def test_edit_conflict_on_missing_path(self):
        model = repo_with(("/a.c",))
        with pytest.raises(KeyError):
            model.remove(from_rendered("/ghost.c"))
        with pytest.raises(KeyError):
            model.move(from_rendered("/ghost/"), from_rendered("/b/"))

    def test_history_is_append_only(self):
        model = repo_with(("/a.c",))
        first = model.head
        state = dict(model.commits[first])
        model.write(from_rendered("/b.c"), "d")
        model.move(from_rendered("/a.c"), from_rendered("/c.c"))
        model.commit()
        assert model.commits[first] == state
        assert file_paths(model.commits[first]) == ["/a.c"]


class TestBranch:
    def test_two_heads_share_a_parent_after_diverging(self):
        model = repo_with(("/a.c",))
        base = model.head
        model.add_branch("side")
        model.write(from_rendered("/r.c"), "r")
        model.commit()
        model.checkout("main")
        model.write(from_rendered("/l.c"), "l")
        model.commit()
        assert model.parents[model.branches["main"]] == model.parents[model.branches["side"]] == (base,)
        assert file_paths(model.work) == ["/a.c", "/l.c"]

    def test_branching_aliases_the_head(self):
        model = repo_with(("/a.c",), {"/a.c": "a"})
        head = model.head
        model.add_branch("side")
        assert model.branches == {"main": head, "side": head}
        assert citation_file(model.work) == citation_file(model.commits[head])

    def test_duplicate_branch_name(self):
        model = repo_with(("/a.c",))
        with pytest.raises(ValueError):
            model.add_branch("main")


class TestCopyCite:
    def make_source(self) -> Model:
        return repo_with(("/core/f2", "/core/deep/g.c", "/other.c"), {"/core/": "core"})

    def test_inherited_resolution_is_preserved_at_the_destination(self):
        src = self.make_source()
        dst = repo_with(("/app.c",))
        dst.copy(src.work, from_rendered("/core/"), from_rendered("/vendor/"))
        dst.commit()
        assert resolved(dst.work, from_rendered("/vendor/f2")) == record("core")
        assert file_paths(dst.work) == ["/app.c", "/vendor/deep/g.c", "/vendor/f2"]
        assert resolved(src.work, from_rendered("/core/f2")) == record("core")

    def test_copying_an_uncited_subtree_adds_exactly_one_entry(self):
        src = Model(record("libroot"))
        src.write(from_rendered("/plain/f.c"), "f")
        src.commit()
        dst = repo_with(("/app.c",))
        dst.copy(src.work, from_rendered("/plain/"), from_rendered("/in/"))
        dst.commit()
        assert keys(dst) == {"/", "/in/"}
        assert citation_file(dst.work).get(from_rendered("/in/")) == record("libroot")

    def test_every_copied_node_resolves_as_at_the_source(self):
        rng = random.Random(99)
        for _ in range(40):
            src_tree = TreeSnapshot.from_files(randgen.rand_tree(rng, max_nodes=25).files)  # the dirs git keeps
            src = repo_with(tuple(map(str, tree_files(src_tree))))
            for path, rec in randgen.rand_citation_file(rng, src_tree).items():
                src.cite(path, rec)
            src.commit()
            subtree = rng.choice([p for p in tree_paths(src_tree) if p.is_dir])
            dst = repo_with(("/app.c",))
            target = from_rendered("/imported/")
            dst.copy(src.work, subtree, target)
            dst.commit()
            for node in tree_paths(src_tree):
                if node.is_within(subtree):
                    assert resolved(dst.work, node.rebased(subtree, target)) == resolved(src.work, node)

    def test_errors(self):
        src_tree = tree("/core/f2", "/other.c")
        src_cf = CitationFile.single(record("lib"))
        dst_tree, dst_cf = tree("/app.c"), CitationFile.single(record("root"))
        with pytest.raises(GitCiteError, match="^/ghost/ is not a directory of the source$"):
            apply_copy(dst_cf, dst_tree, src_cf, src_tree, from_rendered("/ghost/"), from_rendered("/v/"))
        with pytest.raises(GitCiteError, match="^/app.c/ already exists$"):
            apply_copy(dst_cf, dst_tree, src_cf, src_tree, from_rendered("/core/"), from_rendered("/app.c/"))
        with pytest.raises(GitCiteError, match="^destination parent /no/ does not exist$"):
            apply_copy(dst_cf, dst_tree, src_cf, src_tree, from_rendered("/core/"), from_rendered("/no/v/"))


class TestMergeCite:
    def diverged(self) -> Model:
        """``main`` and ``side`` at one commit, ``main`` checked out."""
        model = repo_with(("/shared.c", "/doomed.c"), {"/shared.c": "base"})
        model.add_branch("side")
        model.checkout("main")
        return model

    def on(self, model: Model, branch: str, *edits) -> None:
        """Commit ``edits`` (model method name, args...) on ``branch``, then check ``main`` out."""
        model.checkout(branch)
        for name, *args in edits:
            getattr(model, name)(*(from_rendered(a) if isinstance(a, str) and a.startswith("/") else a for a in args))
        model.commit()
        model.checkout("main")

    def test_disjoint_edits_merge_to_the_union_without_conflicts(self):
        model = self.diverged()
        self.on(model, "main", ("cite", "/doomed.c", record("l")))
        self.on(model, "side", ("write", "/new.c", "n"), ("cite", "/new.c", record("r")))
        assert model.merge("side") == []
        assert keys(model) == {"/", "/shared.c", "/doomed.c", "/new.c"}
        assert len(model.parents[model.head]) == 2

    def test_merging_a_branch_with_itself_changes_nothing(self):
        model = self.diverged()
        head = model.head
        assert model.merge("side") == []
        assert model.head == head

    def test_fast_forward_when_only_one_side_moved(self):
        model = self.diverged()
        self.on(model, "side", ("cite", "/doomed.c", record("s")))
        assert model.merge("side") == []
        assert model.head == model.branches["side"]
        assert citation_file(model.work).get(from_rendered("/doomed.c")) == record("s")

    def test_both_sides_add_different_records_at_one_new_key(self):
        model = self.diverged()
        self.on(model, "main", ("cite", "/doomed.c", record("l")))
        self.on(model, "side", ("cite", "/doomed.c", record("r")))
        assert model.merge("side", {"/doomed.c": "right"}) == [("/doomed.c", "chose_right")]
        assert citation_file(model.work).get(from_rendered("/doomed.c")) == record("r")

    def test_one_side_changed_a_key_wins_silently(self):
        model = self.diverged()
        self.on(model, "main", ("cite", "/shared.c", record("newer")))
        self.on(model, "side", ("write", "/noise.c", "n"))
        assert model.merge("side") == []
        assert citation_file(model.work).get(from_rendered("/shared.c")) == record("newer")

    def test_a_one_sided_citation_delete_survives_the_merge(self):
        model = self.diverged()
        self.on(model, "main", ("uncite", "/shared.c"))
        self.on(model, "side", ("write", "/noise.c", "n"))
        assert model.merge("side") == []
        assert keys(model) == {"/"}

    def test_deleted_file_prunes_the_other_sides_entry_without_conflict(self):
        model = self.diverged()
        self.on(model, "main", ("remove", "/doomed.c"))
        self.on(model, "side", ("cite", "/doomed.c", record("r")))
        assert model.merge("side") == []
        assert keys(model) == {"/", "/shared.c"}
        assert file_paths(model.work) == ["/shared.c"]

    def test_root_conflicts_like_any_key(self):
        model = self.diverged()
        self.on(model, "main", ("cite", ROOT, record("lroot")))
        self.on(model, "side", ("cite", ROOT, record("rroot")))
        assert model.merge("side", {"/": "left"}) == [("/", "chose_left")]
        assert citation_file(model.work).get(ROOT) == record("lroot")

    def test_unresolved_conflict(self):
        model = self.diverged()
        self.on(model, "main", ("cite", "/shared.c", record("l")))
        self.on(model, "side", ("cite", "/shared.c", record("r")))
        head = model.head
        with pytest.raises(KeyError):
            model.merge("side")
        assert model.head == head

    @pytest.mark.parametrize(
        "main_edit, side_edit",
        [
            (("write", "/shared.c", "ours"), ("write", "/shared.c", "theirs")),
            (("write", "/shared.c", "ours"), ("remove", "/shared.c")),
            (("write", "/new.c", "ours"), ("write", "/new.c", "theirs")),
        ],
        ids=["content", "modify-delete", "add-add"],
    )
    def test_a_content_conflict_is_refused(self, main_edit, side_edit):
        model = self.diverged()
        self.on(model, "main", main_edit)
        self.on(model, "side", side_edit)
        branches, commits = dict(model.branches), dict(model.commits)
        with pytest.raises(MergeRefused, match=main_edit[1]):
            model.merge("side")
        assert model.branches == branches and model.commits == commits

    def test_no_common_ancestor(self):
        model = repo_with(("/a.c",))
        orphan = Model(record("x"))  # a second history, grafted in as a branch
        model.commits[-1], model.parents[-1], model.branches["orphan"] = orphan.work, (), -1
        with pytest.raises(MergeRefused, match="share no history"):
            model.merge("orphan")

    def test_merge_key_set_law(self):
        model = self.diverged()
        self.on(model, "main", ("remove", "/doomed.c"))
        self.on(model, "side", ("cite", "/doomed.c", record("r")), ("move", "/shared.c", "/moved.c"))
        model.merge("side")
        assert keys(model) == {"/", "/moved.c"}
        assert set(keys(model)) - {"/"} <= set(file_paths(model.work))


def test_identical_sequences_produce_byte_identical_citation_files():
    def build() -> Model:
        model = repo_with(("/a.c", "/d/x.c"), {"/d/": "d"})
        model.add_branch("side")
        model.write(from_rendered("/d/y.c"), "y")
        model.cite(from_rendered("/d/"), record("dr"))
        model.commit()
        model.checkout("main")
        model.cite(from_rendered("/d/"), record("dl"))
        model.commit()
        model.merge("side", {"/d/": "right"})
        return model

    one, two = build(), build()
    assert [serialize(citation_file(s)) for s in one.commits.values()] == [
        serialize(citation_file(s)) for s in two.commits.values()
    ]
    assert citation_file(one.work).get(from_rendered("/d/")) == record("dr")


class TestConflictReport:
    def test_requires_differing_records(self):
        with pytest.raises(ValueError):
            ConflictReport(ROOT, record("same"), record("same"))

    def test_resolution_classification(self):
        def resolution(kept):
            return ConflictReport(ROOT, record("l"), record("r"), kept).resolution

        assert resolution(None) == "pending"
        assert resolution(record("l")) == "chose_left"
        assert resolution(record("r")) == "chose_right"
        assert resolution(record("fresh")) == "replaced"

    def test_the_merge_reports_the_record_it_kept(self):
        base = CitationFile.single(record("root"))
        left, right = base.with_entry(ROOT, record("l")), base.with_entry(ROOT, record("r"))
        seen = []
        merged, (report,) = merge_citation_files(base, left, right, lambda r: seen.append(r) or record("fresh"))
        assert seen == [ConflictReport(ROOT, record("l"), record("r"))]
        assert report == ConflictReport(ROOT, record("l"), record("r"), record("fresh"))
        assert merged.get(ROOT) == report.record
