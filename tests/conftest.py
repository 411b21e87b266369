from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest

from gitcite import CitationFile, gitadapter
from gitcite.paths import ROOT, from_rendered

from support import record, store_citation_file


@pytest.fixture(autouse=True, scope="session")
def hermetic_git():
    """Every git the tests start, directly or through gitcite, reads neither
    the user's nor the system's git configuration (a ``core.hooksPath`` or
    ``merge.verifySignatures`` there would change what the tests see), nor a
    repository or index that git exports to a hook it runs, and commits with
    the identity ``init_repo`` configures."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        env.setenv("GIT_CONFIG_NOSYSTEM", "1")
        for name in ("GIT_DIR", "GIT_WORK_TREE", "GIT_INDEX_FILE"):
            env.delenv(name, raising=False)
        for role in ("AUTHOR", "COMMITTER"):
            env.setenv(f"GIT_{role}_NAME", "Ada Tester")
            env.setenv(f"GIT_{role}_EMAIL", "ada@example.com")
        yield


# Git's global pathspec settings. A run may export one for gitcite's own git
# calls, which name objects only; the tests' own calls, which pass paths,
# drop them, so a path they pass is read as git reads it by default.
PATHSPEC_SETTINGS = ("GIT_ICASE_PATHSPECS", "GIT_GLOB_PATHSPECS", "GIT_NOGLOB_PATHSPECS", "GIT_LITERAL_PATHSPECS")


def git(root: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items() if name not in PATHSPEC_SETTINGS}
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"git {' '.join(args)} failed:\n{proc.stderr}")
    return proc


def init_repo(root: Path, *, origin: str | None = None) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    git(root, "init", "-q", "-b", "main")
    git(root, "config", "user.name", "Ada Tester")
    git(root, "config", "user.email", "ada@example.com")
    git(root, "config", "commit.gpgsign", "false")
    if origin:
        git(root, "remote", "add", "origin", origin)
    return root


def seed(root: Path, files: dict[str, str], cites: dict[str, str]) -> CitationFile:
    """Write ``files``, then a citation file of ``record("root")`` at the
    root and ``record(tag)`` at each rendered key of ``cites``, and commit
    them all."""
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    cf = CitationFile({ROOT: record("root"), **{from_rendered(k): record(tag) for k, tag in cites.items()}})
    store_citation_file(root, cf)
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "seed")
    return cf


@pytest.fixture
def git_repo(tmp_path):
    """Factory for throwaway git repositories."""

    def make(name: str = "repo", origin: str | None = None) -> Path:
        return init_repo(tmp_path / name, origin=origin)

    return make


@pytest.fixture
def git_calls(monkeypatch) -> list[tuple[str, ...]]:
    """The arguments of every git call gitcite makes during the test, in order."""
    calls: list[tuple[str, ...]] = []
    real_git = gitadapter._git

    def counted(root, *args, **kwargs):
        calls.append(args)
        return real_git(root, *args, **kwargs)

    monkeypatch.setattr(gitadapter, "_git", counted)
    return calls
