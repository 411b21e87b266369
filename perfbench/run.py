"""Benchmark real gitcite commands on seeded synthetic git checkouts.

Usage (from the root of a checkout of this repository):

    python3 perfbench/run.py --workload flat-edit --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` runs every command as its own process (``python -m
gitcite.cli`` with ``PYTHONPATH`` at this checkout's ``src/``), each right
after a run of the fixed job in ``reference.py``, and reports the end-to-end
metrics. ``--trace 1`` replays the same seeded operations
in-process through ``gitcite.cli.main`` with every gitcite function wrapped
in spans and reports the per-layer metrics. ``--smoke`` runs all workloads
both ways on tiny shapes. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it describe the run. Workload shapes, default seeds and the
layer-to-metric predictions are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout under test

import argparse
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from synth import CITATION_FILE, GENERATORS, hermetic_env
from tracing import Tracer, command_breakdown, layer_metrics
from workloads import SYNC, WORKLOADS, Outcome, Session

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
REFERENCE = HERE / "reference.py"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
COMMAND_TIMEOUT_S = 150
SYNC_SCRIPT = """\
from pathlib import Path
from gitcite import gitadapter
root = Path.cwd()
renames, deleted = gitadapter.staged_changes(root)
gitadapter.sync_on_commit(root, renames, deleted)
"""


class ProcessRunner:
    """Runs each command as a fresh interpreter and records wall time and peak RSS.

    With ``reference`` set, every measured command is preceded by a run of
    ``reference.py``, whose wall time goes into the outcome as ``ref_wall``.
    """

    def __init__(self, env: dict[str, str], cwd: Path, scratch: Path, reference: bool = False):
        self.env, self.cwd, self.reference = env, cwd, reference
        self.out_path, self.err_path = scratch / "stdout", scratch / "stderr"

    def _run(self, argv: list[str], out, err) -> tuple[int, float, float]:
        """Exit code, wall time and peak RSS in MB of one process."""
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024

    def __call__(self, command, traced: bool = True) -> Outcome:
        if tuple(command) == SYNC:
            argv = [sys.executable, "-c", SYNC_SCRIPT]
        else:
            argv = [sys.executable, "-m", "gitcite.cli", *command]
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            ref_wall = 0.0
            if traced and self.reference:
                rc, ref_wall, _ = self._run([sys.executable, str(REFERENCE)], out, err)
                err.seek(0)
                if rc != 0:
                    raise RuntimeError(f"reference.py failed: {err.read().decode('utf-8', 'replace')[-300:]}")
                for stream in (out, err):
                    stream.seek(0)
                    stream.truncate()
            rc, wall, rss_mb = self._run(argv, out, err)
            out.seek(0)
            err.seek(0)
            return Outcome(rc, out.read().decode("utf-8", "replace"),
                           err.read().decode("utf-8", "replace"), wall, rss_mb, ref_wall)


class InProcessRunner:
    """Runs commands through ``gitcite.cli.main`` in this interpreter."""

    def __init__(self, tracer: Tracer):
        from gitcite import cli, gitadapter

        self.cli, self.gitadapter, self.tracer = cli, gitadapter, tracer
        self.tracing = False

    def _call(self, command) -> int:
        if tuple(command) == SYNC:
            root = Path.cwd()
            renames, deleted = self.gitadapter.staged_changes(root)
            self.gitadapter.sync_on_commit(root, renames, deleted)
            return 0
        return self.cli.main(list(command))

    def __call__(self, command, traced: bool = True) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if traced and self.tracing:
                    with self.tracer.operation(" ".join(command)):
                        rc = self._call(command)
                else:
                    rc = self._call(command)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                rc = 99
        return Outcome(rc, out.getvalue(), err.getvalue(), perf_counter() - start)


# --- Statistics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond its nearest rank."""
    ordered = sorted(values)
    for tenths in (999, 990, 950, 900, 750):  # percentiles in tenths, so ranks are exact integers
        rank = -(-len(ordered) * tenths // 1000)
        if len(ordered) - rank >= 10:
            return tenths / 10, ordered[rank - 1]
    return None


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_vs_ref")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def class_report(samples) -> dict:
    """Per operation class: p50, tail and sample counts, as ``<class>_p50_s`` etc."""
    report = {}
    for cls in sorted({s.cls for s in samples}):
        walls = [s.wall for s in samples if s.cls == cls]
        report[f"{cls}_p50_s"] = statistics.median(walls)
        report[f"{cls}_samples"] = len(walls)
        found = tail(walls)
        report[f"{cls}_tail_s"] = (
            {"percentile": found[0], "value": found[1]} if found else f"n/a (needs > 10 samples, has {len(walls)})"
        )
    return report


# --- Runs -------------------------------------------------------------------


def file_size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def fresh_sources(src: Path, dest: Path) -> Path:
    """A copy of ``src`` without bytecode, so the first command after it compiles gitcite."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def generate(name: str, shape: dict, seed: int, work: Path, src: Path):
    env = hermetic_env(work, fresh_sources(src, work / "src"))
    start = perf_counter()
    co = GENERATORS[name](work, env, shape, seed)
    os.sync()  # write the new files back now, not while commands are being timed
    info = {**co.info(), "generate_s": perf_counter() - start}
    return env, co, WORKLOADS[name](co, env), info


def round_rng(seed: int, index: int) -> random.Random:
    """Round ``index`` draws its paths from its own generator, so every mode runs the same rounds."""
    return random.Random(f"{seed}-{index}")


def run_rounds(seconds: float, one_round) -> int:
    """Call ``one_round(index)`` for whole rounds until ``seconds`` have passed (at least once)."""
    start, done = perf_counter(), 0
    while done == 0 or perf_counter() - start < seconds:
        one_round(done)
        done += 1
    return done


def process_run(name: str, shape: dict, seed: int, seconds: float, work: Path, src: Path,
                setup_repeats: int) -> dict:
    env, co, workload, info = generate(name, shape, seed, work, src)
    runner = ProcessRunner(env, co.root, work)
    warm = Session(runner)
    setups = []
    for repeat in range(setup_repeats):
        env["PYTHONPATH"] = str(fresh_sources(src, work / f"src-{repeat}"))  # no bytecode cached yet
        first = len(warm.samples)
        workload.warm_up(warm, random.Random(f"{seed}-warm-up"))
        firsts = {}
        for sample in warm.samples[first:]:
            firsts.setdefault(sample.cls, sample.wall)
        setups.append(sum(firsts.values()))
    timed = Session(ProcessRunner(env, co.root, work, reference=True))
    start = perf_counter()
    rounds = run_rounds(seconds, lambda i: workload.round(timed, round_rng(seed, i)))
    elapsed = perf_counter() - start
    walls = [s.wall for s in timed.samples]
    refs = [s.ref_wall for s in timed.samples]
    failed = sum(not s.ok for s in warm.samples + timed.samples)
    attempted = len(warm.samples) + len(timed.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_wall_vs_ref": sum(walls) / sum(refs),
        "peak_rss_mb": max(s.rss_mb for s in warm.samples + timed.samples),
    }
    report = {
        "ops_per_s": len(walls) / sum(walls),
        "p50_s": statistics.median(walls),
        "ref_p50_s": statistics.median(refs),
        **class_report(timed.samples),
        "error_rate": failed / attempted,
        "rounds": rounds,
        "timed_ops": len(walls),
        "measured_wall_s": elapsed,
        "setup_passes_s": setups,
    }
    return {"info": info, "metrics": metrics, "report": report, "attempted": attempted,
            "failed": failed, "problems": warm.problems + timed.problems}


def import_cost(env: dict[str, str], cwd: Path, repeats: int) -> float:
    """Median wall of importing ``gitcite.cli`` in a fresh interpreter, minus ``python -c pass``."""

    def wall(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True)
        return perf_counter() - start

    wall("import gitcite.cli")  # compile into the bytecode cache first
    imports, bare = [], []
    for _ in range(repeats):
        imports.append(wall("import gitcite.cli"))
        bare.append(wall("pass"))
    return statistics.median(imports) - statistics.median(bare)


def traced_run(name: str, shape: dict, seed: int, seconds: float, work: Path, src: Path,
               import_repeats: int, spans_path: str | None) -> dict:
    env, co, workload, info = generate(name, shape, seed, work, src)
    ignored_tops = {f.split("/")[1] for f in co.ignored}
    notes = {  # a note is the first positional argument after self, or the first keyword one
        "gitadapter.store_citation_file":
            lambda args, kwargs: file_size(os.path.join((*args, *kwargs.values())[0], CITATION_FILE)),
    }
    if ignored_tops:  # mark inserts of git-ignored files, for gitadapter.snapshot_useful_ratio
        notes["model.TreeSnapshot.with_file"] = \
            lambda args, kwargs: (*args[1:], *kwargs.values())[0].segments[0] in ignored_tops
    saved_env, saved_cwd = dict(os.environ), os.getcwd()
    sys.path.insert(0, env["PYTHONPATH"])
    os.environ.clear()
    os.environ.update(env)
    os.chdir(co.root)
    tracer = Tracer()
    try:
        runner = InProcessRunner(tracer)
        warm = Session(runner)
        workload.warm_up(warm, random.Random(f"{seed}-warm-up"))
        plain, traced = Session(runner), Session(runner)

        def untraced_then_traced(index: int) -> None:
            # Alternating keeps slow drift of the machine out of the overhead ratio.
            workload.round(plain, round_rng(seed, index))
            tracer.install(notes)
            runner.tracing = True
            try:
                workload.round(traced, round_rng(seed, index))
            finally:
                runner.tracing = False
                tracer.uninstall()

        rounds = run_rounds(seconds, untraced_then_traced)
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path.remove(env["PYTHONPATH"])
        for module in [m for m in sys.modules if m == "gitcite" or m.startswith("gitcite.")]:
            del sys.modules[module]  # the next traced run imports its own copy
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = sum(s.wall for s in traced.samples) / sum(s.wall for s in plain.samples)
    metrics["cli.import_s"] = import_cost(env, co.root, import_repeats)
    if spans_path:
        tracer.write(spans_path)
    sessions = (warm, plain, traced)
    return {
        "info": info,
        "metrics": metrics,
        "report": {"rounds": rounds, "traced_ops": tracer.operations, "spans": len(tracer.spans),
                   "by_command": command_breakdown(tracer)},
        "attempted": sum(len(s.samples) for s in sessions),
        "failed": sum(not x.ok for s in sessions for x in s.samples),
        "problems": [p for s in sessions for p in s.problems],
    }


def environment() -> dict:
    version = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "git": version,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}


def run_one(name: str, shape: dict, seed: int, seconds: float, trace: bool, work_parent: Path,
            src: Path, spans_path: str | None, quick: bool) -> dict:
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent))
    try:
        if trace:
            return traced_run(name, shape, seed, seconds, work, src, 1 if quick else IMPORT_REPEATS, spans_path)
        return process_run(name, shape, seed, seconds, work, src, 1 if quick else SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:  # another run still uses it
            pass


def describe(name: str, seed: int, trace: bool, result: dict) -> None:
    mode = "traced in-process" if trace else "one process per command"
    print(f"perfbench {name} seed={seed} ({mode})")
    print("shape " + json.dumps(result["info"]))
    print("report " + json.dumps(result["report"]))
    for problem in result["problems"][:10]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, both modes, tiny shapes")
    parser.add_argument("--spans", metavar="FILE", help="also write the traced run's spans as JSON lines")
    args = parser.parse_args(argv)
    src = CHECKOUT / "src"
    if not (src / "gitcite" / "cli.py").is_file():
        print(f"perfbench: no gitcite sources at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    work_parent = CHECKOUT / ".perfbench-work"
    print("environment " + json.dumps(environment()))
    if args.smoke:
        summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
        for name, spec in SPEC["workloads"].items():
            seed = spec["default_seed"] if args.seed is None else args.seed
            per_mode = {}
            for trace in (False, True):
                result = run_one(name, spec["smoke_shape"], seed, 0, trace, work_parent, src, args.spans, True)
                describe(name, seed, trace, result)
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                per_mode["per_layer" if trace else "end_to_end"] = with_units(result["metrics"])
                per_mode["report" if not trace else "trace_report"] = result["report"]
            summary["workloads"][name] = per_mode
        summary["correct"] = summary["failed"] == 0
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    spec = SPEC["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    result = run_one(args.workload, spec["shape"], seed, args.seconds, bool(args.trace), work_parent, src,
                     args.spans, False)
    describe(args.workload, seed, bool(args.trace), result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": with_units(result["metrics"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
