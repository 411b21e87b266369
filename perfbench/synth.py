"""Seeded synthetic git checkouts for the gitcite benchmark.

Each generator writes one or two git checkouts and returns a ``Checkout``
that holds, besides the location, the citation keys the benchmark expects to
find, so every output can be checked without calling gitcite. The same seed
and shape always give the same files, keys and commit ids.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

CITATION_FILE = "citation.cite"
FIXED_DATE = "2019-02-03T12:00:00+00:00"
WORDS = ("core", "util", "net", "io", "data", "model", "view", "auth", "cache", "parse",
         "render", "store", "sched", "log", "math", "text", "img", "audio", "crypto", "db")
EXTS = (".py", ".c", ".h", ".md", ".txt", ".json", ".rs", ".go")
GIT_CONFIG = """\
[user]
\tname = Bench Author
\temail = bench@example.org
[init]
\tdefaultBranch = main
[gc]
\tauto = 0
[maintenance]
\tauto = false
[advice]
\tdetachedHead = false
"""


def hermetic_env(work: Path, src: Path) -> dict[str, str]:
    """Environment for every git and gitcite process the benchmark starts.

    Identity and dates are fixed so commit ids repeat from run to run; no
    user or system git configuration is read, and automatic gc is off so no
    background maintenance runs between timed commands.
    """
    home = work / "home"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    home.mkdir(parents=True, exist_ok=True)
    (home / ".gitconfig").write_text(GIT_CONFIG)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "TMPDIR": str(work / "tmp"),
        "LC_ALL": "C",
        "GIT_CONFIG_GLOBAL": str(home / ".gitconfig"),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CEILING_DIRECTORIES": str(work),
        "GIT_AUTHOR_NAME": "Bench Author",
        "GIT_AUTHOR_EMAIL": "bench@example.org",
        "GIT_COMMITTER_NAME": "Bench Author",
        "GIT_COMMITTER_EMAIL": "bench@example.org",
        "GIT_AUTHOR_DATE": FIXED_DATE,
        "GIT_COMMITTER_DATE": FIXED_DATE,
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
    }


def git(root: Path, env: dict[str, str], *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed in {root}: {proc.stderr.strip()}")
    return proc.stdout


# --- Expected citations -----------------------------------------------------


def record(n: int, seed: int) -> dict:
    """Record object number ``n``, in the canonical field order of the file."""
    return {
        "owner": f"owner{n % 37}",
        "repo_name": f"lib{n}",
        "locator": f"https://example.org/s{seed}/lib{n}",
        "version_id": f"1.{n}",
        "date": "2019-02-03",
        "author_list": [f"Author {n}", f"Author {n + 1}"],
        "extras": {"license": "MIT"} if n % 3 == 0 else {},
    }


def cite_text(keys: dict[str, dict]) -> str:
    """Canonical citation file: sorted keys, two-space indent, final newline."""
    return json.dumps({k: keys[k] for k in sorted(keys)}, indent=2, ensure_ascii=False) + "\n"


def owner_key(keys: dict[str, dict], path: str) -> str:
    """The deepest key covering the rendered ``path``: itself or an ancestor directory."""
    if path in keys:
        return path
    segments = path.strip("/").split("/")
    for n in range(len(segments) - 1, 0, -1):
        candidate = "/" + "/".join(segments[:n]) + "/"
        if candidate in keys:
            return candidate
    return "/"


def within(path: str, directory: str) -> bool:
    return path.startswith(directory) and directory.endswith("/")


def rebased(keys: dict[str, dict], old: str, new: str) -> dict[str, dict]:
    return {(new + k[len(old):] if within(k, old) else k): v for k, v in keys.items()}


# --- Tree shapes ------------------------------------------------------------


class Namer:
    """Seeded, globally unique file and directory names."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def dir(self) -> str:
        self.count += 1
        return f"{self.rng.choice(WORDS)}{self.count}"

    def file(self) -> str:
        self.count += 1
        return f"{self.rng.choice(WORDS)}_{self.count}{self.rng.choice(EXTS)}"


def grow_dirs(rng: random.Random, namer: Namer, levels: list[int], under: str = "/") -> list[str]:
    """Directories level by level; each picks a random parent one level up."""
    out: list[str] = []
    parents = [under]
    for count in levels:
        level = [f"{rng.choice(parents)}{namer.dir()}/" for _ in range(count)]
        out += level
        parents = level
    return out


def spread_files(rng: random.Random, namer: Namer, dirs: list[str], count: int) -> list[str]:
    """``count`` files over ``dirs``, at least one in each so no directory is empty."""
    homes = list(dirs) + [rng.choice(dirs) for _ in range(max(0, count - len(dirs)))]
    return [f"{d}{namer.file()}" for d in homes]


def write_files(root: Path, rng: random.Random, files: list[str]) -> None:
    """Small text files of seeded sizes."""
    sizes = {f: rng.randint(64, 2048) for f in files}
    made: set[Path] = set()
    for f in files:
        path = root / f[1:]
        if path.parent not in made:
            path.parent.mkdir(parents=True, exist_ok=True)
            made.add(path.parent)
        path.write_bytes(rng.randbytes((sizes[f] + 1) // 2).hex().encode()[: sizes[f]])


def cite_keys(rng: random.Random, seed: int, dirs: list[str], files: list[str],
              n_dirs: int, n_files: int, first: int = 1) -> dict[str, dict]:
    chosen = rng.sample(dirs, n_dirs) + rng.sample(files, n_files)
    return {key: record(first + i, seed) for i, key in enumerate(chosen)}


@dataclass
class Checkout:
    """A generated checkout as the benchmark expects it to be.

    ``files`` and ``dirs`` are the tracked paths in rendered form (the
    citation file excluded), ``keys`` the citation file's entries at HEAD,
    ``ignored`` the git-ignored files and ``extra`` what a workload needs.
    """

    root: Path
    files: list[str]
    dirs: list[str]
    keys: dict[str, dict]
    ignored: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def write_citations(self, keys: dict[str, dict]) -> None:
        self.keys = keys
        (self.root / CITATION_FILE).write_text(cite_text(keys), encoding="utf-8")

    def info(self) -> dict:
        per_dir: dict[str, int] = {}
        for f in self.files:
            parent = f[: f.rfind("/") + 1]
            per_dir[parent] = per_dir.get(parent, 0) + 1
        widest = max(per_dir, key=lambda d: (per_dir[d], d))
        deepest = max(self.files, key=lambda f: (f.count("/"), f))
        return {
            "tracked_files": len(self.files) + 1,
            "directories": len(self.dirs),
            "widest_dir": {"path": widest, "files": per_dir[widest]},
            "deepest_path": {"path": deepest, "depth": deepest.count("/")},
            "ignored_files": len(self.ignored),
            "keys": len(self.keys),
        }


def make_repo(root: Path, env: dict[str, str], files: list[str], keys: dict[str, dict],
              rng: random.Random) -> Checkout:
    """Write ``files`` and the citation file into a new repository; nothing is committed."""
    root.mkdir(parents=True)
    write_files(root, rng, files)
    dirs = sorted({f[: i + 1] for f in files for i in range(1, len(f)) if f[i] == "/"})
    co = Checkout(root, sorted(files), dirs, {})
    co.write_citations(keys)
    git(root, env, "init", "-q")
    return co


def commit_all(co: Checkout, env: dict[str, str], message: str) -> str:
    git(co.root, env, "add", "-A")
    git(co.root, env, "commit", "-q", "-m", message)
    return git(co.root, env, "rev-parse", "HEAD").strip()


# --- Workload checkouts -----------------------------------------------------


def flat_edit(work: Path, env: dict[str, str], shape: dict, seed: int) -> Checkout:
    """One very wide directory beside ordinary ones, an ignored build directory and two commits.

    ``extra["targets"]`` are uncited tracked paths. The second commit edits
    some records, so ``extra["changed_files"]`` resolve differently at
    HEAD~1, where ``extra["hist_keys"]`` applies.
    """
    rng = random.Random(seed)
    namer = Namer(rng)
    flat = f"/{namer.dir()}/"
    dirs = grow_dirs(rng, namer, shape["dir_levels"])
    files = [f"{flat}{namer.file()}" for _ in range(shape["flat_files"])]
    files += spread_files(rng, namer, dirs, shape["spread_files"])
    keys = {"/": record(0, seed), **cite_keys(rng, seed, [flat, *dirs], files, shape["dir_keys"],
                                              shape["keys"] - 1 - shape["dir_keys"])}
    co = make_repo(work / "main", env, files, keys, rng)
    co.extra["targets"] = [p for p in co.files + co.dirs if p not in keys]
    co.files = sorted(co.files + ["/.gitignore"])
    (co.root / ".gitignore").write_text("build/\n")
    ignored_dirs = [f"/build/{namer.dir()}/" for _ in range(shape["ignored_dirs"])]
    co.ignored = spread_files(rng, namer, ignored_dirs, shape["ignored_files"])
    write_files(co.root, rng, co.ignored)
    commit_all(co, env, "initial")
    hist_keys = dict(co.keys)
    changed = rng.sample(sorted(k for k in hist_keys if k != "/"), shape["history_edits"])
    new_keys = dict(hist_keys)
    for n, key in enumerate(changed):
        new_keys[key] = {**hist_keys[key], "version_id": f"2.{n}", "extras": {"rev": "2"}}
    co.write_citations(new_keys)
    commit_all(co, env, "update records")
    changed_set = set(changed)
    co.extra["hist_keys"] = hist_keys
    co.extra["changed_files"] = [f for f in co.files if owner_key(hist_keys, f) in changed_set]
    return co


def history_sync(work: Path, env: dict[str, str], shape: dict, seed: int) -> Checkout:
    """A main and a side branch that both edit records, plus a source checkout.

    ``extra`` holds: ``moves`` (directories a cycle may ``git mv``),
    ``doomed`` (the directory the side branch deletes), ``side_keys``,
    ``side_only`` (keys only the side branch edited), ``start`` (the main
    commit every cycle resets to) and ``other`` (the source checkout).
    """
    rng = random.Random(seed)
    namer = Namer(rng)
    moves = [f"/{namer.dir()}/" for _ in range(shape["moves"])]
    move_dirs = {m: [m] + grow_dirs(rng, namer, shape["move_levels"], under=m) for m in moves}
    doomed = f"/{namer.dir()}/"
    doomed_dirs = [doomed] + grow_dirs(rng, namer, [2], under=doomed)
    plain_dirs = grow_dirs(rng, namer, shape["dir_levels"])
    files = ["/third_party/README.md"]
    for m in moves:
        files += spread_files(rng, namer, move_dirs[m], shape["move_files"])
    files += spread_files(rng, namer, doomed_dirs, shape["doomed_files"])
    files += spread_files(rng, namer, plain_dirs, shape["files"] - len(files))
    keys = {"/": record(0, seed)}
    n = 1
    for m in moves:
        sub_files = [f for f in files if f.startswith(m)]
        part = cite_keys(rng, seed, move_dirs[m], sub_files, shape["move_dir_keys"], shape["move_file_keys"], n)
        keys.update(part)
        n += len(part)
    doomed_files = [f for f in files if f.startswith(doomed)]
    keys[doomed] = record(n, seed)
    keys.update(cite_keys(rng, seed, doomed_dirs[1:], doomed_files, 1, 3, n + 1))
    n += 5
    plain_files = [f for f in files if not f.startswith((doomed, "/third_party/", *moves))]
    rest = shape["keys"] - len(keys)
    keys.update(cite_keys(rng, seed, plain_dirs, plain_files, shape["plain_dir_keys"],
                          rest - shape["plain_dir_keys"], n))

    co = make_repo(work / "main", env, files, keys, rng)
    commit_all(co, env, "initial")
    base_keys = dict(co.keys)
    editable = sorted(k for k in keys if k != "/" and not k.startswith((doomed, *moves)))
    picked = rng.sample(editable, shape["shared_edits"] + shape["side_edits"])
    shared, side_only = picked[: shape["shared_edits"]], picked[shape["shared_edits"]:]

    git(co.root, env, "checkout", "-q", "-b", "side")
    side_keys = {k: v for k, v in base_keys.items() if not within(k, doomed)}
    for key in shared:
        side_keys[key] = {**base_keys[key], "version_id": "side-1"}
    for key in side_only:
        side_keys[key] = {**base_keys[key], "version_id": "side-only"}
    git(co.root, env, "rm", "-r", "-q", doomed.strip("/"))
    co.write_citations(side_keys)
    commit_all(co, env, "side: edit records, drop a directory")

    git(co.root, env, "checkout", "-q", "main")
    main_keys = dict(base_keys)
    for key in shared:
        main_keys[key] = {**base_keys[key], "version_id": "main-1"}
    co.write_citations(main_keys)
    start = commit_all(co, env, "main: edit records")

    other = _source_checkout(work / "other", env, shape, seed, rng, namer)
    co.extra.update(moves=moves, doomed=doomed, side_keys=side_keys, side_only=set(side_only),
                    start=start, other=other)
    return co


def _source_checkout(root: Path, env: dict[str, str], shape: dict, seed: int,
                     rng: random.Random, namer: Namer) -> Checkout:
    """The checkout ``copy`` reads from; ``/sub/`` is the copied directory."""
    sub_dirs = grow_dirs(rng, namer, [shape["copy_sub_dirs"]], under="/sub/")
    other_dirs = grow_dirs(rng, namer, [shape["copy_other_dirs"]])
    files = spread_files(rng, namer, sub_dirs, shape["copy_sub_files"])
    files += spread_files(rng, namer, other_dirs, shape["copy_other_files"])
    keys = {"/": record(900, seed)}
    keys.update(cite_keys(rng, seed, sub_dirs, files[: shape["copy_sub_files"]],
                          shape["copy_sub_dir_keys"], shape["copy_sub_keys"] - shape["copy_sub_dir_keys"], 901))
    keys.update(cite_keys(rng, seed, other_dirs, [], 2, 0, 950))
    co = make_repo(root, env, files, keys, rng)
    commit_all(co, env, "initial")
    return co


GENERATORS = {"flat-edit": flat_edit, "history-sync": history_sync}
