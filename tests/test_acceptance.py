"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are exact equality and 100% agreement on the randomized
bulk checks; the randomized generators are seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
import time

import pytest

from gitcite import CitationFile, resolve, validate
from gitcite.errors import EditConflict
from gitcite.fileformat import parse, serialize
from gitcite.ops import choose_left
from gitcite.paths import ROOT, from_rendered

import randgen
from gitdriver import run_scenario
from reference_store import CiteEdit, Repository, TreeEdit, copy_cite, fork_cite, gen_cite
from scenarios import SCENARIOS
from support import record, resolve_by_walking, tree

def _ok(label: str) -> None:
    print(f"[PASS] {label}")


def test_version_history_replay_for_copy_and_merge():
    """Two projects; explicit leaf citation, subtree copy, conflict-free merge."""
    started = time.perf_counter()
    c1, c2 = record("c1"), record("c2")
    c3, c4 = record("c3"), record("c4")
    f1 = from_rendered("/f1")

    p1 = Repository.create("p1", c1, tree=tree("/f1", "/d/f3"))
    v1 = p1.head("main")
    assert resolve(v1.cf, v1.tree, f1) == c1

    p1.add_branch("feature", v1.id)
    v2 = p1.commit("main", cite_edits=[CiteEdit.add(f1, c2)])
    assert resolve(v2.cf, v2.tree, f1) == c2

    p2 = Repository.create("p2", c3, tree=tree("/green/f2", "/green/inner/h"))
    v3 = p2.commit("main", cite_edits=[CiteEdit.add(from_rendered("/green/"), c4)])
    f2_at_source = from_rendered("/green/f2")
    assert resolve(v3.cf, v3.tree, f2_at_source) == c4

    v4 = copy_cite(p2, v3.id, from_rendered("/green/"), p1, "feature", from_rendered("/green/"))
    f2_at_destination = from_rendered("/green/f2")
    assert resolve(v4.cf, v4.tree, f2_at_destination) == c4
    assert v4.cf.get(from_rendered("/green/")) == c4  # destination root explicitly cited

    v5, conflicts = p1.merge("main", "feature")
    assert conflicts == []
    assert v5.cf == CitationFile({**v2.cf.as_dict(), **v4.cf.as_dict()})
    assert resolve(v5.cf, v5.tree, f1) == c2

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    _ok("history replay: leaf citation, subtree copy, and conflict-free merge union")


def test_component_import_and_branch_attribution():
    """Imported code and a contributor's directory keep their own credit."""
    started = time.perf_counter()
    bob = record("bob", owner="Bob", author_list=("Bob",))
    carlos = record("carlos", owner="Carlos", author_list=("Carlos",))
    alice = record("alice", owner="Bob", author_list=("Alice",))

    carol_repo = Repository.create("c", carlos, tree=tree("/rewrite.c", "/views.c"))
    b = Repository.create("b", bob, tree=tree("/app/main.c", "/README"))

    copy_cite(carol_repo, carol_repo.head_id("main"), ROOT, b, "main", from_rendered("/CC/"))

    b.add_branch("alice-gui", b.head_id("main"))
    b.commit("alice-gui", [TreeEdit.create(from_rendered("/gui/view.c"), "v1")])
    b.commit("alice-gui", cite_edits=[CiteEdit.add(from_rendered("/gui/"), alice)])
    _, conflicts = b.merge("main", "alice-gui")
    assert conflicts == []

    head = b.head_id("main")
    assert gen_cite(b, head, ROOT) == bob
    assert gen_cite(b, head, from_rendered("/CC/")) == carlos
    assert gen_cite(b, head, from_rendered("/CC/rewrite.c")) == carlos
    assert gen_cite(b, head, from_rendered("/gui/")) == alice
    assert gen_cite(b, head, from_rendered("/gui/view.c")) == alice
    assert gen_cite(b, head, from_rendered("/app/main.c")) == bob

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    _ok("attribution replay: whole repo, imported component, and contributor directory")


def test_resolution_matches_the_walk_oracle():
    """1,000 random (tree, citation file, node) instances, 100% agreement."""
    agreements = 0
    for i in range(1000):
        rng = random.Random(3000 + i)
        snap = randgen.rand_tree(rng, max_nodes=200)
        cf = randgen.rand_citation_file(rng, snap)
        node = randgen.rand_node(rng, snap)
        assert resolve(cf, snap, node) == resolve_by_walking(cf, node)
        agreements += 1
    assert agreements == 1000
    _ok("resolution equals the upward-walk oracle on 1000/1000 random instances")


def test_copy_preserves_resolution():
    """500 random copies; every copied node resolves as it did at the source."""
    checked = 0
    for i in range(500):
        rng = random.Random(5000 + i)
        src_tree = randgen.rand_tree(rng, max_nodes=25)
        src = Repository.create("src", randgen.rand_record(rng), tree=src_tree)
        src.commit(
            "main",
            cite_edits=[
                CiteEdit.add(p, r)
                for p, r in randgen.rand_citation_file(rng, src_tree, density=0.35).items()
                if not p.is_root
            ],
        )
        subtree = rng.choice([p for p in src.head("main").tree.paths() if p.is_dir])
        dst = Repository.create("dst", randgen.rand_record(rng), tree=randgen.rand_tree(rng, 8))
        target = from_rendered(f"/import{i}/")
        version = copy_cite(src, src.head_id("main"), subtree, dst, "main", target)
        src_head = src.head("main")
        for node in src_head.tree.paths():
            if not node.is_within(subtree):
                continue
            moved = node.rebased(subtree, target)
            assert resolve(version.cf, version.tree, moved) == resolve(
                src_head.cf, src_head.tree, node
            )
        checked += 1
    assert checked == 500
    _ok("copy preserved resolution for every node in 500/500 random copies")


def _expected_conflict_keys(base: CitationFile, left: CitationFile, right: CitationFile) -> set[str]:
    """Keys both sides cite, each with a record of its own: the resolver's cases."""
    out = set()
    for key in set(left.keys()) & set(right.keys()):
        l, r = left.get(key), right.get(key)
        if l != r and base.get(key) != l and base.get(key) != r:
            out.add(str(key))
    return out


def _expected_merge_record(base: CitationFile, left: CitationFile, right: CitationFile, key, choices):
    """The documented rule for one key, written out independently; None is no entry."""
    b, l, r = base.get(key), left.get(key), right.get(key)
    if l == b:
        return r  # the left side kept the base's state, entry or no entry
    if r == b or r == l:
        return l  # only the left side changed it, or both changed it alike
    if l is None or r is None:
        return r if l is None else l  # one side deleted it, the other changed it
    return l if choices[str(key)] == "left" else r  # both changed: the scripted choice


def _three_file_states(repo: Repository, into: str, other: str) -> bool:
    """Whether a file has three different states (absent is one) in the
    merge base and the two heads: the merges the store must refuse."""
    heads = repo.head_id(into), repo.head_id(other)
    base_id = repo.merge_base(*heads)
    if base_id in heads:
        return False  # nothing to merge, or a fast-forward
    files = [repo.version(vid).tree.files for vid in (base_id, *heads)]
    return any(len({f.get(segments) for f in files}) == 3 for segments in set().union(*files))


def _assert_refused(repo: Repository, into: str, other: str) -> None:
    versions, branches = dict(repo.versions), dict(repo.branches)
    with pytest.raises(EditConflict):
        repo.merge(into, other, choose_left)
    assert repo.versions == versions and repo.branches == branches


def test_merge_key_algebra_and_adapter_agreement():
    """300 random divergent branch pairs; refusal law, conflict law, record law."""
    refused = 0
    for i in range(300):
        rng = random.Random(7000 + i)
        base_tree = randgen.rand_tree(rng, max_nodes=18)
        repo = Repository.create(f"m{i}", randgen.rand_record(rng), tree=base_tree)
        repo.commit(
            "main",
            cite_edits=[
                CiteEdit.add(p, r)
                for p, r in randgen.rand_citation_file(rng, base_tree, density=0.3).items()
                if not p.is_root
            ],
        )
        base = repo.head("main")
        repo.add_branch("side", base.id)
        for branch in ("main", "side"):
            for _ in range(rng.randint(1, 2)):
                head = repo.head(branch)
                repo.commit(
                    branch,
                    randgen.rand_tree_edits(rng, head.tree, rng.randint(0, 3)),
                    randgen.rand_cite_edits(rng, repo, branch, rng.randint(0, 3)),
                )
        left, right = repo.head("main"), repo.head("side")
        assert repo.merge_base(left.id, right.id) == base.id

        if _three_file_states(repo, "main", "side"):
            _assert_refused(repo, "main", "side")
            refused += 1
            continue

        choices: dict[str, str] = {}

        def deciding(report):
            pick = rng.choice(["left", "right"])
            choices[str(report.key)] = pick
            return report.left if pick == "left" else report.right

        merged, conflicts = repo.merge("main", "side", deciding)
        assert {str(c.key) for c in conflicts} == _expected_conflict_keys(base.cf, left.cf, right.cf)

        records = {
            k: _expected_merge_record(base.cf, left.cf, right.cf, k, choices)
            for k in set(base.cf.keys()) | set(left.cf.keys()) | set(right.cf.keys())
        }
        expected = CitationFile(
            {k: v for k, v in records.items() if v is not None and (k.is_root or merged.tree.contains(k))}
        )
        assert serialize(merged.cf) == serialize(expected)
    assert 0 < refused < 300
    _ok(f"merge refusal, conflict and record laws held on 300/300 pairs ({refused} refused)")


def test_random_operation_sequences_stay_consistent():
    """200 sequences of 30+ mixed operations; every head validates, history immutable."""
    for i in range(200):
        rng = random.Random(11000 + i)
        fresh = randgen.rand_tree(rng, max_nodes=12)
        repos: list[Repository] = [Repository.create(f"r{i}", randgen.rand_record(rng), tree=fresh)]
        seen: dict[tuple[str, str], object] = {}
        counter = 0
        applied = 0
        while applied < 30:
            counter += 1
            repo = rng.choice(repos)
            roll = rng.random()
            if roll < 0.35:
                branch = rng.choice(list(repo.branches))
                head = repo.head(branch)
                repo.commit(
                    branch,
                    randgen.rand_tree_edits(rng, head.tree, rng.randint(0, 3)),
                    randgen.rand_cite_edits(rng, repo, branch, rng.randint(0, 2)),
                )
            elif roll < 0.5:
                branch = rng.choice(list(repo.branches))
                repo.commit(branch, cite_edits=randgen.rand_cite_edits(rng, repo, branch, rng.randint(1, 2)))
            elif roll < 0.62:
                repo.add_branch(f"b{i}-{counter}", rng.choice(list(repo.versions)))
            elif roll < 0.77 and len(repo.branches) >= 2:
                into, other = rng.sample(list(repo.branches), 2)
                if _three_file_states(repo, into, other):
                    _assert_refused(repo, into, other)
                else:
                    repo.merge(into, other, choose_left)
            elif roll < 0.9:
                src = rng.choice(repos)
                src_branch = rng.choice(list(src.branches))
                src_head = src.head(src_branch)
                subtree = rng.choice([p for p in src_head.tree.paths() if p.is_dir])
                dst_branch = rng.choice(list(repo.branches))
                copy_cite(src, src_head.id, subtree, repo, dst_branch, from_rendered(f"/imp{i}-{counter}/"))
            elif len(repos) < 3:
                repos.append(fork_cite(repo, new_repo_id=f"f{i}-{counter}"))
            else:
                continue
            applied += 1

            for current in repos:
                for vid, version in current.versions.items():
                    tag = (current.id, vid)
                    if tag in seen:
                        assert seen[tag] is version, "an existing version was replaced"
                    else:
                        seen[tag] = version
                for branch in current.branches:
                    head = current.head(branch)
                    assert validate(head.cf, head.tree) == []
                    node = randgen.rand_node(rng, head.tree)
                    assert resolve(head.cf, head.tree, node) == resolve_by_walking(head.cf, node)
        assert applied >= 30
    _ok("200/200 random operation sequences kept every head consistent and history immutable")


def test_document_round_trips_and_determinism():
    """200 random citation files; parse/serialize identities and canonical bytes."""
    for i in range(200):
        rng = random.Random(13000 + i)
        snap = randgen.rand_tree(rng, max_nodes=20)
        cf = randgen.rand_citation_file(rng, snap, density=0.5)
        doc = serialize(cf)
        assert parse(doc) == cf
        assert serialize(parse(doc)) == doc
        shuffled = list(cf.items())
        rng.shuffle(shuffled)
        assert serialize(CitationFile(shuffled)) == doc
    _ok("parse/serialize round-trips and byte determinism held on 200/200 files")


def test_adapter_agrees_with_the_reference_on_git_scenarios(tmp_path):
    """23 scripted scenarios on a real repository; citation files equal at every commit."""
    started = time.perf_counter()
    assert len(SCENARIOS) == 23
    for name, scenario in SCENARIOS.items():
        run_scenario(tmp_path, name, scenario)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"scenario suite took {elapsed:.1f}s"
    _ok(f"adapter matched the reference across 23/23 git scenarios ({elapsed:.1f}s)")
