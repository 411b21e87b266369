"""Drive identical scenarios through a real git worktree and the identity model.

Each scenario step is applied twice: on disk through the adapter (with git
doing change detection, merging, and history), and on an
:class:`identity_model.Model`. At every commit point and merge the citation
file on disk must equal the model's byte for byte, and the checkout must
hold the model's files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping

import pytest

from gitcite import CitationFile, validate
from gitcite.errors import EditConflict
from gitcite.fileformat import parse, serialize
from gitcite.gitadapter import (
    CITATION_FILE,
    WorktreeLookup,
    load_citation_file,
    run_copy,
    run_merge,
    staged_changes,
    store_citation_file,
    sync_on_commit,
)
from gitcite.model import CitationRecord
from gitcite.ops import ConflictReport, Resolver, apply_add, apply_delete, apply_modify
from gitcite.paths import from_rendered

from conftest import git, init_repo
from identity_model import MergeRefused, Model, citation_file, file_paths
from support import record, snapshot_worktree


def _sha(content: str) -> str:
    return hashlib.sha1(content.encode()).hexdigest()


def scripted_resolver(choices: Mapping[str, str]) -> Resolver:
    """Resolver driven by a rendered-path -> "left" | "right" table."""

    def _resolve(report: ConflictReport) -> CitationRecord | None:
        return {"left": report.left, "right": report.right}.get(choices.get(str(report.key)))

    return _resolve


class Project:
    """One scenario participant: a git worktree plus its identity model."""

    def __init__(self, tmp_path: Path, name: str):
        self.name = name
        self.root = init_repo(tmp_path / name)
        root_record = record(f"{name}-root")
        store_citation_file(self.root, CitationFile.single(root_record))
        git(self.root, "add", "-A")
        git(self.root, "commit", "-q", "-m", "initial citation")
        self.model = Model(root_record)
        self.assert_agreement()

    # -- plumbing ------------------------------------------------------------

    def assert_agreement(self) -> None:
        disk = (self.root / CITATION_FILE).read_text(encoding="utf-8")
        expected = serialize(citation_file(self.model.work))
        assert disk == expected, (
            f"{self.name}@{self.model.branch}: adapter and model disagree\n"
            f"--- adapter ---\n{disk}\n--- model ---\n{expected}"
        )
        assert validate(parse(disk), WorktreeLookup(self.root)) == []
        assert [str(p) for p in snapshot_worktree(self.root).file_paths()] == file_paths(self.model.work)

    def _clean(self) -> None:
        assert self.model.work == self.model.commits[self.model.head], (
            f"{self.name}: branch operations need a committed state"
        )

    def _commit_on_disk(self, message: str) -> None:
        git(self.root, "add", "-A")
        renames, deleted = staged_changes(self.root)
        sync_on_commit(self.root, renames, deleted)
        git(self.root, "add", "-A")
        git(self.root, "commit", "-q", "-m", message)

    # -- steps ---------------------------------------------------------------

    def write(self, rel: str, content: str) -> None:
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
        self.model.write(from_rendered("/" + rel), _sha(content))

    def rm(self, rendered: str) -> None:
        path = from_rendered(rendered)
        git(self.root, "rm", "-q", "-r", "/".join(path.segments))
        self.model.remove(path)

    def mv(self, rendered_old: str, rendered_new: str) -> None:
        old, new = from_rendered(rendered_old), from_rendered(rendered_new)
        git(self.root, "mv", "/".join(old.segments), "/".join(new.segments))
        self.model.move(old, new)

    def cite_add(self, rendered: str, tag: str) -> None:
        path = from_rendered(rendered)
        cf = load_citation_file(self.root)
        store_citation_file(self.root, apply_add(cf, WorktreeLookup(self.root), path, record(tag)))
        self.model.cite(path, record(tag))

    def cite_del(self, rendered: str) -> None:
        path = from_rendered(rendered)
        store_citation_file(self.root, apply_delete(load_citation_file(self.root), path))
        self.model.uncite(path)

    def cite_mod(self, rendered: str, tag: str) -> None:
        path = from_rendered(rendered)
        store_citation_file(self.root, apply_modify(load_citation_file(self.root), path, record(tag)))
        self.model.cite(path, record(tag))

    def commit(self) -> None:
        self._commit_on_disk("step")
        self.model.commit()
        self.assert_agreement()

    def branch(self, name: str) -> None:
        self._clean()
        git(self.root, "checkout", "-q", "-b", name)
        self.model.add_branch(name)

    def checkout(self, name: str) -> None:
        self._clean()
        git(self.root, "checkout", "-q", name)
        self.model.checkout(name)

    def merge(self, other: str, choices: dict[str, str] | None = None) -> bool:
        """Merge ``other`` on disk and in the model; returns whether both refused it.

        A merge the adapter refuses with :class:`EditConflict` must be refused
        by the model too, and then neither branch may move.
        """
        self._clean()
        choices = choices or {}
        refs = git(self.root, "rev-parse", "HEAD", other).stdout
        try:
            _, adapter_conflicts = run_merge(self.root, other, scripted_resolver(choices))
        except EditConflict:
            with pytest.raises(MergeRefused):
                self.model.merge(other, choices)
            assert git(self.root, "rev-parse", "HEAD", other).stdout == refs
            assert git(self.root, "status", "--porcelain").stdout == ""
            self.assert_agreement()
            return True
        model_conflicts = self.model.merge(other, choices)
        assert sorted((str(c.key), c.resolution) for c in adapter_conflicts) == model_conflicts
        self.assert_agreement()
        return False

    def merge_refused(self, other: str) -> None:
        assert self.merge(other), f"merging {other} was not refused"

    def copy_from(self, source: "Project", src_subtree: str, dst_path: str) -> None:
        self._clean()
        source._clean()
        sub, dst = from_rendered(src_subtree), from_rendered(dst_path)
        run_copy(self.root, source.root, sub, dst)
        self._commit_on_disk(f"import {src_subtree}")
        self.model.copy(source.model.work, sub, dst)
        self.model.commit()
        self.assert_agreement()


def run_scenario(tmp_path: Path, name: str, scenario: dict) -> None:
    """Interpret one scripted scenario against a fresh pair of drivers."""
    workdir = tmp_path / name
    workdir.mkdir()
    aux = None
    if scenario.get("aux"):
        aux = Project(workdir, "aux")
        _apply_steps(aux, scenario["aux"], aux=None)
    main = Project(workdir, "main")
    _apply_steps(main, scenario["steps"], aux=aux)


def _apply_steps(project: Project, steps, aux: Project | None) -> None:
    for step in steps:
        op, *args = step
        if op == "copy_from":
            project.copy_from(aux, *args)
        else:
            getattr(project, op)(*args)
