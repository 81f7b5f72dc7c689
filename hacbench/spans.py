"""Spans around the engine's layer boundaries, recorded from outside it.

:class:`Tracer` wraps the public functions of the engine modules by
rebinding every module attribute that refers to them, so calls made
through ``from x import f`` names are seen too. Each wrapped call is one
span: name, start, end, parent and the id of the engine call it belongs
to. Spans stay in memory until :meth:`Tracer.dump`.

Spark work is attributed to the innermost open span: each span runs
under its own Spark job group, and after the engine call the jobs of
every group are read from the status tracker. DataFrame builders are
lazy, so their jobs land in the action that consumes them
(``num_heavy_edges``, ``connected_components``, ``materialize``, or the
engine's own collects).
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import urllib.parse
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

LAYER_MODULES = (
    "repro.core.terahac",
    "repro.core.terahac_local",
    "repro.core.subgraph_hac",
    "repro.graphs.edges",
    "repro.graphs.affinity",
    "repro.graphs.components",
    "repro.graphs.io",
    "repro.graphs.weights",
)
# The Spark engine's kernel UDF calls subgraph_hac in its Python workers,
# where the driver's spans cannot see it. The UDF is pickled with that
# global, and the kernel ships by reference only while both bindings
# below still hold the original function.
UNWRAPPED = {("repro.core.terahac", "subgraph_hac"), ("repro.core.subgraph_hac", "subgraph_hac")}


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    jobs: int = 0  # Spark jobs started while this span was innermost
    rows: int = 0  # subgraph_hac: input edge rows
    merges: int = 0  # subgraph_hac: merges performed
    goodness: int = 0  # subgraph_hac: Definition 2 evaluations
    bytes: int = 0  # materialize: parquet bytes written


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def inclusive_jobs(spans: list[Span]) -> dict[int, int]:
    """Span id -> its own jobs plus those of all its descendants."""
    out = {s.id: s.jobs for s in spans}
    for s in sorted(spans, key=lambda s: s.id, reverse=True):
        if s.parent is not None:
            out[s.parent] += out[s.id]
    return out


def per_call(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Call id -> per-layer totals of that call.

    Keys are ``<span>.s`` / ``.self.s`` / ``.jobs`` / ``.self.jobs`` /
    ``.calls`` summed over the call's spans of that name, plus kernel
    row, merge and goodness totals and the largest kernel call.
    """
    selfs, incl = self_times(spans), inclusive_jobs(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        acc, d = out[s.call], s.end - s.start
        acc[f"{s.name}.s"] += d
        acc[f"{s.name}.self.s"] += selfs[s.id]
        acc[f"{s.name}.jobs"] += incl[s.id]
        acc[f"{s.name}.self.jobs"] += s.jobs
        acc[f"{s.name}.calls"] += 1
        acc["io.written_bytes"] += s.bytes
        if s.name == "subgraph_hac":
            acc["subgraph_hac.rows"] += s.rows
            acc["subgraph_hac.merges"] += s.merges
            acc["goodness.calls"] += s.goodness
            acc["subgraph_hac.max_rows"] = max(acc["subgraph_hac.max_rows"], s.rows)
            acc["subgraph_hac.max_call_s"] = max(acc["subgraph_hac.max_call_s"], d)
    return out


class Tracer:
    """Records spans of engine calls; ``sc`` enables Spark job counting."""

    def __init__(self, sc=None) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call = -1
        self._goodness = 0
        self._patched: list[tuple[object, str, object]] = []

    # ----- engine calls -------------------------------------------------
    def begin_call(self, call: int) -> None:
        self._call = call
        self._set_group(self._call_group())

    def end_call(self) -> int:
        """Resolve the jobs of the current call's spans; return the total."""
        total = 0
        if self.sc is not None:
            tracker = self.sc.statusTracker()
            for s in self.spans:
                if s.call == self._call:
                    s.jobs = len(tracker.getJobIdsForGroup(f"hacbench-span-{s.id}"))
                    total += s.jobs
            total += len(tracker.getJobIdsForGroup(self._call_group()))
        return total

    def _call_group(self) -> str:
        return f"hacbench-call-{self._call}"

    def _set_group(self, group: str) -> None:
        if self.sc is not None:
            self.sc.setJobGroup(group, group)

    # ----- wrapping -----------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "io.materialize":
                span_name += "." + kwargs.get("tag", args[1] if len(args) > 1 else "step")
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer._call, span_name, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._set_group(f"hacbench-span-{span.id}")
            goodness0 = tracer._goodness
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._set_group(
                    f"hacbench-span-{tracer._stack[-1].id}" if tracer._stack else tracer._call_group()
                )
            if name == "subgraph_hac":
                span.rows, span.merges = len(args[0]), len(result.merges)
                span.goodness = tracer._goodness - goodness0
            elif name == "io.materialize":
                span.bytes = sum(
                    os.path.getsize(urllib.parse.unquote(urllib.parse.urlparse(f).path))
                    for f in result.inputFiles()
                )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public engine function wherever it is bound."""
        wrappers: dict[int, object] = {}
        for mod_name in LAYER_MODULES:
            mod = importlib.import_module(mod_name)
            short = mod_name.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod_name and not name.startswith("_"):
                    wrappers[id(fn)] = self._wrap(fn, short if name == short else f"{short}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro."):
                continue
            for name, val in list(vars(mod).items()):
                if id(val) in wrappers and (mod_name, name) not in UNWRAPPED:
                    self._patched.append((mod, name, val))
                    setattr(mod, name, wrappers[id(val)])
        # Count Definition 2 evaluations where subgraph_hac looks them up;
        # a span per evaluation would cost more than the evaluation.
        kernel = sys.modules["repro.core.subgraph_hac"]
        goodness = kernel.goodness

        def counted(*args):
            self._goodness += 1
            return goodness(*args)

        self._patched.append((kernel, "goodness", goodness))
        kernel.goodness = counted

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._patched):
            setattr(mod, name, val)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
