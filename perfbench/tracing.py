"""In-memory spans around gitcite's layers, recorded from the benchmark's side.

``Tracer.install`` wraps every public function of the ``gitcite`` modules,
the ``TreeSnapshot`` build methods and ``gitadapter._git`` (the one place
every git subprocess goes through). A function is replaced in every gitcite
module namespace that holds it, because modules import names directly, so
spans follow whatever the current code actually calls; a function that the
code stops calling simply reports zero.

A span is ``(name, start, end, parent index, operation id)``. Spans stay in
memory until the run ends. ``layer_metrics`` turns them into the per-layer
figures: "self" time is a span's duration minus the time its direct child
spans cover, and a group's ``.s`` time sums its outermost spans only.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

TREE_BUILD = ("with_file", "with_dir", "from_files")
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.notes: dict[int, object] = {}
        self.on = False
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, tracer._op)
                stack.pop()
            if note is not None:
                value = note(args, kwargs)
                if value:
                    tracer.notes[index] = value
            return result

        return wrapper

    def install(self, notes: dict) -> None:
        """Wrap the gitcite functions.

        ``notes`` maps a span name to ``(args, kwargs) -> value``, called after
        the span ends; a true value is kept as the span's note.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gitcite" or name.startswith("gitcite."))]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and (not attr.startswith("_") or attr == "_git")):
                    name = f"{short}.{attr}"
                    wrappers[value] = self._wrap(name, value, notes.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        tree = sys.modules["gitcite.model"].TreeSnapshot
        for attr in TREE_BUILD:
            raw = tree.__dict__[attr]
            self._undo.append((tree, attr, raw))
            name = f"model.TreeSnapshot.{attr}"
            if isinstance(raw, classmethod):
                setattr(tree, attr, classmethod(self._wrap(name, raw.__func__, notes.get(name))))
            else:
                setattr(tree, attr, self._wrap(name, raw, notes.get(name)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self.on = False

    @contextmanager
    def operation(self, label: str):
        """One span per measured operation; everything it calls nests under it."""
        self._op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.on = True
        start = perf_counter()
        try:
            yield
        finally:
            self.on = False
            self.spans[index] = (OP, start, perf_counter(), -1, self._op)
            self._stack.pop()
            self.notes[index] = label

    @property
    def operations(self) -> int:
        return self._op + 1

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, op and the optional note."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                row = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if index in self.notes:
                    row["note"] = self.notes[index]
                out.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer means per traced operation (see the module docstring)."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    ops = max(tracer.operations, 1)

    def self_s(match) -> float:
        return sum(durations[i] - covered[i] for i, name in enumerate(names) if match(name)) / ops

    def count(name: str) -> float:
        return names.count(name) / ops

    def outermost(group: set[str]) -> list[int]:
        inside = [False] * len(spans)
        found = []
        for index, (name, parent) in enumerate(zip(names, parents)):
            above = parent >= 0 and inside[parent]
            inside[index] = above or name in group
            if name in group and not above:
                found.append(index)
        return found

    def outer_s(*group: str) -> float:
        return sum(durations[i] for i in outermost(set(group))) / ops

    snapshot_of = [-1] * len(spans)
    for index, (name, parent) in enumerate(zip(names, parents)):
        if name == "gitadapter.snapshot_worktree":
            snapshot_of[index] = index
        elif parent >= 0:
            snapshot_of[index] = snapshot_of[parent]
    inserted = [i for i, name in enumerate(names) if name == "model.TreeSnapshot.with_file" and snapshot_of[i] >= 0]
    snapshot_files = len(inserted)
    snapshot_tracked = snapshot_files - sum(1 for i in inserted if tracer.notes.get(i))
    tree_build = tuple(f"model.TreeSnapshot.{attr}" for attr in TREE_BUILD)
    resolve = ("model.resolve", "model.resolve_from_entries")
    path_funcs = ("paths.canonicalize", "paths.from_rendered")
    stored = sum(tracer.notes.get(i, 0) for i, name in enumerate(names)
                 if name == "gitadapter.store_citation_file")
    metrics = {
        "cli.main.self_s": self_s(lambda name: name.startswith("cli.")),
        "gitadapter.snapshot_worktree.self_s": self_s(lambda name: name == "gitadapter.snapshot_worktree"),
        "gitadapter.snapshot_worktree.files": snapshot_files / ops,
        "gitadapter.snapshot_useful_ratio": snapshot_tracked / snapshot_files if snapshot_files else 0.0,
        "model.tree_build.s": outer_s(*tree_build),
        "model.tree_build.inserts": count("model.TreeSnapshot.with_file") + count("model.TreeSnapshot.with_dir"),
        "gitadapter.git.calls": count("gitadapter._git"),
        "gitadapter.git.s": outer_s("gitadapter._git"),
        "paths.from_rendered.calls": count("paths.from_rendered"),
        "paths.s": outer_s(*path_funcs),
        "fileformat.parse.s": outer_s("fileformat.parse"),
        "fileformat.serialize.s": outer_s("fileformat.serialize"),
        "fileformat.serialize.calls": count("fileformat.serialize"),
        "gitadapter.store_citation_file.bytes": stored / ops,
        "model.resolve.s": outer_s(*resolve),
        "model.resolve.calls": len(outermost(set(resolve))) / ops,
        "model.validate.s": outer_s("model.validate"),
    }
    for func in ("staged_changes", "sync_on_commit", "run_merge", "tree_from_index", "run_copy",
                 "tree_at_revision", "load_citation_file", "store_citation_file"):
        name = f"gitadapter.{func}"
        metrics[f"{name}.self_s"] = self_s(lambda span, name=name: span == name)
    return metrics


def command_breakdown(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Means per traced command kind (``gen``, ``gen --version``, ``add``, ...): wall, git calls, tree build."""
    kind_of_op: dict[int, str] = {}
    for index, span in enumerate(tracer.spans):
        if span[0] == OP:
            words = tracer.notes[index].split()
            kind_of_op[span[4]] = words[0] + (" --version" if "--version" in words else "")
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        row = totals.setdefault(kind_of_op[op], {"ops": 0, "wall_s": 0.0, "git_calls": 0, "tree_build_s": 0.0})
        if name == OP:
            row["ops"] += 1
            row["wall_s"] += end - start
        elif name == "gitadapter._git":
            row["git_calls"] += 1
        elif name.startswith("model.TreeSnapshot.") and not tracer.spans[parent][0].startswith("model.TreeSnapshot."):
            row["tree_build_s"] += end - start
    return {kind: {key: (value if key == "ops" else value / row["ops"]) for key, value in row.items()}
            for kind, row in sorted(totals.items())}
