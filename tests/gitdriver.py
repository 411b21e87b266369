"""Drive identical scenarios through a real git worktree and the in-memory model.

Each scenario step is applied twice: on disk through the adapter (with git
doing change detection, merging, and history), and abstractly on a
:class:`reference_store.Repository`. At every commit point the citation file on disk
must equal the reference citation file byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from gitcite import CitationFile, validate
from gitcite.errors import EditConflict
from gitcite.fileformat import parse, serialize
from gitcite.gitadapter import (
    WorktreeLookup,
    citation_file_name,
    load_citation_file,
    run_copy,
    run_merge,
    staged_changes,
    store_citation_file,
    sync_on_commit,
)
from gitcite.ops import apply_add, apply_delete, apply_modify
from gitcite.paths import from_rendered

from conftest import git, init_repo
from reference_store import CiteEdit, Repository, TreeEdit, copy_cite, scripted_resolver
from support import record, snapshot_worktree


def _sha(content: str) -> str:
    return hashlib.sha1(content.encode()).hexdigest()


class Project:
    """One scenario participant: a git worktree plus its reference model."""

    def __init__(self, tmp_path: Path, name: str):
        self.name = name
        self.root = init_repo(tmp_path / name)
        root_record = record(f"{name}-root")
        store_citation_file(self.root, CitationFile.single(root_record))
        git(self.root, "add", "-A")
        git(self.root, "commit", "-q", "-m", "initial citation")
        self.model = Repository.create(name, root_record)
        self.current_branch = "main"
        self.pending_tree: list[TreeEdit] = []
        self.pending_cite: list[CiteEdit] = []
        self.assert_agreement(self.model.head(self.current_branch))

    # -- plumbing ------------------------------------------------------------

    def _clean(self) -> None:
        assert not self.pending_tree and not self.pending_cite, (
            f"{self.name}: branch operations need a committed state"
        )

    def disk_document(self) -> str:
        return (self.root / citation_file_name()).read_text(encoding="utf-8")

    def assert_agreement(self, version) -> None:
        disk = self.disk_document()
        expected = serialize(version.cf)
        assert disk == expected, (
            f"{self.name}@{self.current_branch}: adapter and reference disagree\n"
            f"--- adapter ---\n{disk}\n--- reference ---\n{expected}"
        )
        assert validate(parse(disk), WorktreeLookup(self.root)) == []

    # -- steps ---------------------------------------------------------------

    def write(self, rel: str, content: str) -> None:
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        existed = target.exists()
        target.write_text(content)
        path = from_rendered("/" + rel)
        if existed:
            self.pending_tree.append(TreeEdit.modify(path, _sha(content)))
        else:
            self.pending_tree.append(TreeEdit.create(path, _sha(content)))

    def rm(self, rendered: str) -> None:
        path = from_rendered(rendered)
        rel = "/".join(path.segments)
        if path.is_dir:
            git(self.root, "rm", "-q", "-r", rel)
        else:
            git(self.root, "rm", "-q", rel)
        self.pending_tree.append(TreeEdit.delete(path))

    def mv(self, rendered_old: str, rendered_new: str) -> None:
        old, new = from_rendered(rendered_old), from_rendered(rendered_new)
        git(self.root, "mv", "/".join(old.segments), "/".join(new.segments))
        self.pending_tree.append(TreeEdit.rename(old, new))

    def cite_add(self, rendered: str, tag: str) -> None:
        path = from_rendered(rendered)
        cf = load_citation_file(self.root)
        store_citation_file(self.root, apply_add(cf, WorktreeLookup(self.root), path, record(tag)))
        self.pending_cite.append(CiteEdit.add(path, record(tag)))

    def cite_del(self, rendered: str) -> None:
        path = from_rendered(rendered)
        store_citation_file(self.root, apply_delete(load_citation_file(self.root), path))
        self.pending_cite.append(CiteEdit.delete(path))

    def cite_mod(self, rendered: str, tag: str) -> None:
        path = from_rendered(rendered)
        store_citation_file(self.root, apply_modify(load_citation_file(self.root), path, record(tag)))
        self.pending_cite.append(CiteEdit.modify(path, record(tag)))

    def commit(self) -> None:
        git(self.root, "add", "-A")
        renames, deleted = staged_changes(self.root)
        sync_on_commit(self.root, renames, deleted)
        git(self.root, "add", "-A")
        git(self.root, "commit", "-q", "-m", "step")
        version = self.model.commit(self.current_branch, self.pending_tree, self.pending_cite)
        self.pending_tree, self.pending_cite = [], []
        self.assert_agreement(version)

    def branch(self, name: str) -> None:
        self._clean()
        git(self.root, "checkout", "-q", "-b", name)
        self.model.add_branch(name, self.model.head_id(self.current_branch))
        self.current_branch = name

    def checkout(self, name: str) -> None:
        self._clean()
        git(self.root, "checkout", "-q", name)
        self.current_branch = name

    def merge(self, other: str, choices: dict[str, str] | None = None) -> bool:
        """Merge ``other`` on disk and in the model; returns whether both refused it.

        A merge the adapter refuses with :class:`EditConflict` must be refused
        by the store too, and then neither branch may move on either side.
        """
        self._clean()
        choices = choices or {}
        refs = git(self.root, "rev-parse", "HEAD", other).stdout
        branches = dict(self.model.branches)
        try:
            _, adapter_conflicts = run_merge(self.root, other, scripted_resolver(choices))
        except EditConflict:
            with pytest.raises(EditConflict):
                self.model.merge(self.current_branch, other, scripted_resolver(choices))
            assert git(self.root, "rev-parse", "HEAD", other).stdout == refs
            assert git(self.root, "status", "--porcelain").stdout == ""
            assert self.model.branches == branches
            self.assert_agreement(self.model.head(self.current_branch))
            return True
        version, model_conflicts = self.model.merge(self.current_branch, other, scripted_resolver(choices))
        assert [(str(c.key), c.resolution) for c in adapter_conflicts] == [
            (str(c.key), c.resolution) for c in model_conflicts
        ]
        self.assert_agreement(version)
        disk_files = {str(p) for p in snapshot_worktree(self.root).file_paths()}
        model_files = {str(p) for p in version.tree.file_paths()}
        assert disk_files == model_files
        return False

    def merge_refused(self, other: str) -> None:
        assert self.merge(other), f"merging {other} was not refused"

    def copy_from(self, source: "Project", src_subtree: str, dst_path: str) -> None:
        self._clean()
        source._clean()
        sub, dst = from_rendered(src_subtree), from_rendered(dst_path)
        run_copy(self.root, source.root, sub, dst)
        git(self.root, "add", "-A")
        renames, deleted = staged_changes(self.root)
        sync_on_commit(self.root, renames, deleted)
        git(self.root, "add", "-A")
        git(self.root, "commit", "-q", "-m", f"import {src_subtree}")
        version = copy_cite(
            source.model,
            source.model.head_id(source.current_branch),
            sub,
            self.model,
            self.current_branch,
            dst,
        )
        self.assert_agreement(version)


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
