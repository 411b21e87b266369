"""The benchmark's workloads: rounds of gitcite commands and their checks.

A round runs each of a workload's operation classes at least once, closed
loop with one client: every command waits for the previous one. A warm-up
runs the first command of each class (and whatever must follow it to put
the checkout back). An operation fails on
a wrong exit code, wrong output or a failed state check, and the expected
results come from the generator's key map, never from gitcite itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from synth import CITATION_FILE, Checkout, git, owner_key, rebased, within

SYNC = ("<sync>",)  # commit-time sync, run the way a pre-commit hook would run it

Check = Callable[[str], "str | None"]


@dataclass
class Outcome:
    rc: int
    out: str
    err: str
    wall: float
    rss_mb: float = 0.0
    ref_wall: float = 0.0  # the reference job run just before the command, if one was


@dataclass
class Sample:
    cls: str
    wall: float
    ref_wall: float
    rss_mb: float
    ok: bool


class Session:
    """Runs one workload's commands through a runner and records each outcome.

    A runner is a callable ``(command, traced) -> Outcome``; ``traced`` is
    False for commands that only check state and are not measured.
    """

    def __init__(self, runner):
        self.runner = runner
        self.samples: list[Sample] = []
        self.problems: list[str] = []

    def op(self, cls: str, command: tuple[str, ...] | list[str], check: Check | None = None) -> Outcome:
        outcome = self.runner(command, True)
        if outcome.rc != 0:
            problem = f"exit {outcome.rc}: {outcome.err.strip()[-300:]}"
        else:
            problem = check(outcome.out) if check else None
        self.samples.append(Sample(cls, outcome.wall, outcome.ref_wall, outcome.rss_mb, problem is None))
        if problem:
            self.problems.append(f"{cls} {' '.join(command)}: {problem}")
        return outcome

    def untimed(self, command: list[str]) -> Outcome:
        return self.runner(command, False)


# --- Output checks ----------------------------------------------------------


def expect_json(expected: dict) -> Check:
    def check(out: str) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return f"not JSON: {out[:200]!r}"
        return None if got == expected else f"got {got}, expected {expected}"

    return check


def expect_contains(text: str) -> Check:
    return lambda out: None if text in out else f"{text!r} not in {out[:300]!r}"


def expect_line(text: str) -> Check:
    return lambda out: None if text in out.splitlines() else f"no line {text!r} in {out[:300]!r}"


def both(*checks: Check) -> Check:
    def check(out: str) -> str | None:
        for one in checks:
            problem = one(out)
            if problem:
                return problem
        return None

    return check


def key_diff(got: dict, expected: dict) -> str | None:
    if got == expected:
        return None
    extra = sorted(set(got) - set(expected))[:5]
    missing = sorted(set(expected) - set(got))[:5]
    changed = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])[:5]
    return f"citation keys differ: extra {extra}, missing {missing}, changed {changed}"


# --- Workloads --------------------------------------------------------------


class FlatEdit:
    """add -> gen -> modify -> gen --version -> validate -> del; the cycle restores the file.

    The edits and the first ``gen`` act on one uncited path; ``gen --version
    HEAD~1`` reads a path whose record the second commit changed.
    """

    def __init__(self, co: Checkout, env: dict[str, str]):
        self.co = co
        self.cycles = 0
        self.original = (co.root / CITATION_FILE).read_bytes()

    def _add_and_gen(self, s: Session, rng: random.Random) -> tuple[str, int]:
        self.cycles += 1
        n, keys = self.cycles, self.co.keys
        path = rng.choice(self.co.extra["targets"])
        fields = {"owner": f"editor{n}", "repo_name": f"edit{n}", "locator": f"https://example.org/edit/{n}"}
        flags = [arg for name, value in fields.items() for arg in ("--field", f"{name}={value}")]
        s.op("edit", ["add", path[1:], *flags], expect_line(f"cited {path}"))
        s.op("read", ["gen", path[1:], "--format", "json"], expect_json({**keys[owner_key(keys, path)], **fields}))
        return path, n

    def warm_up(self, s: Session, rng: random.Random) -> None:
        """The first edit and the first read; the file is then put back directly."""
        self._add_and_gen(s, rng)
        (self.co.root / CITATION_FILE).write_bytes(self.original)

    def round(self, s: Session, rng: random.Random) -> None:
        hist = self.co.extra["hist_keys"]
        path, n = self._add_and_gen(s, rng)
        old = rng.choice(self.co.extra["changed_files"])
        s.op("edit", ["modify", path[1:], "--field", f"owner=maintainer{n}"], expect_line(f"updated {path}"))
        s.op("read", ["gen", old[1:], "--version", "HEAD~1", "--format", "json"],
             expect_json(hist[owner_key(hist, old)]))
        s.op("read", ["validate"], expect_contains("consistent"))
        s.op("edit", ["del", path[1:]], both(expect_line(f"removed the citation of {path}; "
                                                         "it now inherits from its closest ancestor"),
                                            self._restored))

    def _restored(self, out: str) -> str | None:
        cite = self.co.root / CITATION_FILE
        if cite.read_bytes() == self.original:
            return None
        cite.write_bytes(self.original)  # keep later cycles independent of this failure
        return f"{CITATION_FILE} differs from its state before the cycle"


class HistorySync:
    """git mv -> sync -> commit -> merge side -> copy, then reset to the start."""

    def __init__(self, co: Checkout, env: dict[str, str]):
        self.co, self.env = co, env
        self.other = co.extra["other"]

    def warm_up(self, s: Session, rng: random.Random) -> None:
        self.round(s, rng)

    def _cite(self) -> dict:
        return json.loads((self.co.root / CITATION_FILE).read_text(encoding="utf-8"))

    def round(self, s: Session, rng: random.Random) -> None:
        co, extra = self.co, self.co.extra
        old = rng.choice(extra["moves"])
        new = f"/moved{rng.randrange(10 ** 6)}/"
        git(co.root, self.env, "mv", old.strip("/"), new.strip("/"))

        synced = rebased(co.keys, old, new)

        def check_sync(out: str) -> str | None:
            got = self._cite()
            stale = [k for k in got if within(k, old)]
            if stale:
                return f"keys left under {old}: {stale[:5]}"
            problem = key_diff(got, synced)
            if problem:
                return problem
            validate = s.untimed(["validate"])
            return None if validate.rc == 0 else f"validate after sync: {validate.out[-300:]}"

        s.op("sync", SYNC, check_sync)
        git(co.root, self.env, "add", CITATION_FILE)
        git(co.root, self.env, "commit", "-q", "-m", f"move {old} to {new}")

        side_keys, doomed = extra["side_keys"], extra["doomed"]
        merged = {k: (side_keys[k] if k in extra["side_only"] else v)
                  for k, v in synced.items() if not within(k, doomed)}
        conflicts = sum(1 for k, v in side_keys.items()
                        if k not in extra["side_only"] and v != co.keys.get(k) and k in synced)

        def check_merge(out: str) -> str | None:
            if (co.root / ".git" / "MERGE_HEAD").exists():
                return "MERGE_HEAD left behind"
            parents = git(co.root, self.env, "rev-list", "--parents", "-n", "1", "HEAD").split()
            if len(parents) != 3:
                return f"HEAD has {len(parents) - 1} parents, expected 2"
            if f"{conflicts} conflicts resolved" not in out:
                return f"expected {conflicts} conflicts in {out[:200]!r}"
            return key_diff(self._cite(), merged)

        s.op("merge", ["merge", "--ours", "side"], check_merge)

        dst = f"/third_party/x{rng.randrange(10 ** 6)}/"
        src_keys = self.other.keys
        added = {dst + k[len("/sub/"):]: v for k, v in src_keys.items() if within(k, "/sub/") and k != "/sub/"}
        added[dst] = src_keys[owner_key(src_keys, "/sub/")]
        sub_files = sum(1 for f in self.other.files if within(f, "/sub/"))

        def check_copy(out: str) -> str | None:
            first = f"copied /sub/ -> {dst}; migrated {len(added)} citation entries:"
            if not out.startswith(first):
                return f"expected {first!r}, got {out[:200]!r}"
            copied = sum(1 for p in (co.root / dst.strip("/")).rglob("*") if p.is_file())
            if copied != sub_files:
                return f"copied {copied} files, expected {sub_files}"
            return key_diff(self._cite(), {**merged, **added})

        s.op("copy", ["copy", str(self.other.root), "sub/", dst[1:]], check_copy)
        git(co.root, self.env, "reset", "-q", "--hard", extra["start"])
        git(co.root, self.env, "clean", "-q", "-fd")


WORKLOADS = {"flat-edit": FlatEdit, "history-sync": HistorySync}
