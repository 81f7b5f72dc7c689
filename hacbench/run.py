"""TeraHAC benchmark: one workload, one seed, one run.

    python3 hacbench/run.py --workload rmat-local --seed 1 --seconds 6 --trace 0

A closed loop with one caller: engine calls run one at a time in this
process. After set-up (session start, input generation, warm-up) the
run sweeps over the workload's inputs, at least once, until
``--seconds`` have passed; a local run then calls a few inputs once
more, untimed. Every call is then checked by the gate; a failing call
counts in ``failed`` and is left out of the timings. Times are scaled
to a reference speed by the calibration probe of ``speed.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced sweep and reports the
per-layer metrics, and writes the spans to ``.bench_out/``. The last
line of stdout is one JSON object ``{correct, attempted, failed,
metrics}``. Without the engine sources next to this directory the run
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hacbench import speed  # noqa: E402

SETUP_REPEATS = 3  # input generation (and a local warm-up) is repeated; the median counts
RECHECKS = 3  # inputs besides input 0 that a local run calls again, untimed
SETUP_UNITS = 4  # calibration units right before and right after local set-up
SAMPLE_S = 0.5  # seconds between calibration units during Spark set-up and calls


@dataclass
class Record:
    """One timed engine call."""

    sweep: int
    input: int
    result: object  # TeraHACResult, or the exception the call raised
    wall: float
    units: list[float]  # calibration unit times measured next to the call
    traced: bool = False
    timed: bool = True  # False: a repeat for the gate, left out of wall_s
    jobs: int = 0
    ckpt_dirs: int = 0
    error: str | None = None


def timed(fn) -> tuple[object, float]:
    t0 = time.perf_counter()
    try:
        res = fn()
    except Exception as e:  # a failing call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        res = e
    return res, time.perf_counter() - t0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def ckpt_dirs(work: Path) -> int:
    """Parquet barrier directories under the run's checkpoint root."""
    return sum(1 for p in (work / "ckpt").glob("*/*") if p.is_dir())


def sweep_median(records: list[Record], scaled: bool = True) -> float:
    """Median over sweeps of the mean wall time of a sweep's passing,
    timed calls, scaled by the sweep's calibration units unless
    ``scaled`` is false."""
    records = [r for r in records if r.timed]
    by_sweep: dict[int, list[Record]] = {}
    for r in records:
        if r.error is None:
            by_sweep.setdefault(r.sweep, []).append(r)
    if not by_sweep:  # every call failed; keep the number, correct is false
        for r in records:
            by_sweep.setdefault(r.sweep, []).append(r)
    out = []
    for rs in by_sweep.values():
        wall = statistics.fmean(r.wall for r in rs)
        out.append(speed.scale(wall, [u for r in rs for u in r.units]) if scaled else wall)
    return statistics.median(out)


def mean_layers(calls: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer totals averaged over engine calls (``max_*``: the maximum)."""
    keys = set().union(*calls) if calls else set()
    return {
        k: (max if ".max_" in k else statistics.fmean)(c.get(k, 0.0) for c in calls)
        for k in keys
    }


def sweeps(inputs, seconds: float, call) -> list[Record]:
    """Timed sweeps over ``inputs``, at least one, until ``seconds`` pass."""
    records: list[Record] = []
    t0 = time.perf_counter()
    s = 0
    while not records or time.perf_counter() - t0 < seconds:
        records += [call(s, i, inp) for i, inp in enumerate(inputs)]
        s += 1
    return records


def gate(records: list[Record], refs: dict[int, object], check_ref, rel_tol: float) -> None:
    """Fill ``Record.error``: each call must match its input's reference
    result, and each reference must pass ``check_ref``."""
    from hacbench.gate import same_merges

    ref_errors: dict[int, str | None] = {}
    for r in records:
        if isinstance(r.result, Exception):
            r.error = f"raised {r.result!r}"
            continue
        if r.input not in ref_errors:
            ref = refs.setdefault(r.input, r.result)
            ref_errors[r.input] = (
                f"raised {ref!r}" if isinstance(ref, Exception) else check_ref(r.input, ref)
            )
        r.error = ref_errors[r.input] or same_merges(r.result, refs[r.input], rel_tol)


def pair_f1(result, pairs, t: float) -> float:
    """Best pairwise F1 over Table 3's flatten thresholds."""
    from repro.eval.flatten_eval import pair_precision_recall

    best = 0.0
    for ft in (0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.3, 0.15, t):
        pr = pair_precision_recall(result.dendrogram.flatten(ft), pairs)
        if pr.precision + pr.recall > 0:
            best = max(best, 2 * pr.precision * pr.recall / (pr.precision + pr.recall))
    return best


def run_local(w, seed: int, seconds: float, trace: bool, probe) -> tuple[list[Record], dict]:
    setup_units = probe.units(SETUP_UNITS)
    t0 = time.perf_counter()
    import repro.core.terahac_local as tl
    from hacbench.gate import replay
    from hacbench.spans import Tracer, per_call
    from hacbench.workloads import make_inputs

    import_s = time.perf_counter() - t0

    def engine(inp):
        return tl.terahac_local(inp.edges, inp.n, eps=w.eps, t=w.t, max_subgraph_edges=w.max_subgraph_edges)

    gen_s, warm_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = make_inputs(w, seed)
        gen_s.append(time.perf_counter() - t0)
        warm, s = timed(lambda: engine(inputs[0]))
        warm_s.append(s)
    setup_units += probe.units(SETUP_UNITS)
    setup_s = speed.scale(import_s + statistics.median(gen_s) + statistics.median(warm_s), setup_units)

    def call(s, i, inp, traced=False):
        if traced:
            tracer.begin_call(s * len(inputs) + i)
        res, wall = timed(lambda: engine(inp))
        return Record(s, i, res, wall, probe.units(1), traced)

    tracer = Tracer()
    if trace:
        records = [call(0, i, inp) for i, inp in enumerate(inputs)]
        tracer.install()
        try:
            records += [call(1, i, inp, True) for i, inp in enumerate(inputs)]
        finally:
            tracer.uninstall()
    else:
        records = sweeps(inputs, seconds, call)
        # The warm-up is input 0's reference. Call a few more inputs, picked
        # by the seed, once more, so the gate's check that a call equals the
        # run's first call on its input covers more than input 0.
        again = random.Random(seed).sample(range(1, len(inputs)), min(RECHECKS, len(inputs) - 1))
        records += [dataclasses.replace(call(-1, i, inputs[i]), timed=False) for i in again]
    gate(records, {0: warm}, lambda i, ref: replay(inputs[i].edges, inputs[i].n, ref, w.eps, w.t), 0.0)

    ok = [r for r in records if r.error is None and r.timed]
    out = {
        "wall_s": sweep_median(records),
        "setup_s": setup_s,
        "rounds": statistics.fmean(r.result.rounds for r in ok) if ok else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        out.update(mean_layers(list(per_call(tracer.spans).values())))
        out["forced_merges"] = statistics.fmean(r.result.forced_merges for r in ok) if ok else 0.0
        out["trace.overhead_s"] = sweep_median([r for r in records if r.traced]) - sweep_median(
            [r for r in records if not r.traced]
        )
        out["spans"] = tracer
    return records, out


def run_spark(w, seed: int, seconds: float, trace: bool, work: Path, probe) -> tuple[list[Record], dict]:
    probe.start(SAMPLE_S)
    t0 = time.perf_counter()
    from hacbench import sparkenv

    spark = sparkenv.start(ROOT, work / "spark")
    try:
        import repro.core.terahac as th
        import repro.core.terahac_local as tl
        from hacbench.gate import replay
        from hacbench.spans import Tracer, per_call
        from hacbench.workloads import WARMUP, make_inputs
        from repro.synth_data import edges_to_spark

        session_s = time.perf_counter() - t0
        sc = spark.sparkContext
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = make_inputs(w, seed)
            frames = [edges_to_spark(spark, inp.edges) for inp in inputs]
            gen_s.append(time.perf_counter() - t0)

        def engine(df, n):
            return th.terahac(spark, df, n, eps=w.eps, t=w.t, max_subgraph_edges=w.max_subgraph_edges)

        _, warm_s = timed(lambda: engine(edges_to_spark(spark, WARMUP.edges), WARMUP.n))
        setup_s = speed.scale(session_s + statistics.median(gen_s) + warm_s, probe.stop())

        tracer = Tracer(sc)

        def call(s, i, inp, traced=False):
            k = s * len(inputs) + i
            tracer.begin_call(k)  # one job group per call; spans add theirs
            before = ckpt_dirs(work)
            with probe.sampling(SAMPLE_S) as units:
                res, wall = timed(lambda: engine(frames[i], inp.n))
            sparkenv.drain(spark)
            return Record(s, i, res, wall, units, traced, True, tracer.end_call(), ckpt_dirs(work) - before)

        if trace:
            records = [call(0, 0, inputs[0])]
            tracer.install()
            try:
                records.append(call(1, 0, inputs[0], True))
                tracer.begin_call(-1)  # the kernel on the same input, local engine
                tracer.sc = None  # which runs no Spark jobs
                kernel, _ = timed(
                    lambda: tl.terahac_local(
                        inputs[0].edges, inputs[0].n, eps=w.eps, t=w.t, max_subgraph_edges=w.max_subgraph_edges
                    )
                )
            finally:
                tracer.uninstall()
        else:
            records = sweeps(inputs, seconds, call)
        jvm_mb = peak_rss_mb(sparkenv.jvm_pid(spark))
    finally:
        sparkenv.stop(spark)

    local_refs = {
        i: tl.terahac_local(inp.edges, inp.n, eps=w.eps, t=w.t, max_subgraph_edges=w.max_subgraph_edges)
        for i, inp in enumerate(inputs)
    }
    gate(records, local_refs, lambda i, ref: replay(inputs[i].edges, inputs[i].n, ref, w.eps, w.t), 1e-9)
    ok = [r for r in records if r.error is None]
    untraced = [r for r in records if not r.traced]
    out = {
        "wall_s": sweep_median(records),
        "setup_s": setup_s,
        "rounds": statistics.fmean(r.result.rounds for r in ok) if ok else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "spark_jobs": statistics.fmean(r.jobs for r in untraced),
        "ckpt_dirs_left": statistics.fmean(r.ckpt_dirs for r in untraced),
        "pair_f1": pair_f1(ok[0].result, inputs[ok[0].input].pairs, w.t) if ok else 0.0,
    }
    if trace:
        calls = per_call(tracer.spans)
        traced = [r for r in records if r.traced]
        out.update(mean_layers([calls[-1]]))
        out.update(mean_layers([calls[r.sweep * len(inputs) + r.input] for r in traced]))
        out["forced_merges"] = kernel.forced_merges if not isinstance(kernel, Exception) else 0.0
        out["jvm.peak_rss_mb"] = jvm_mb
        out["spark.s_per_job"] = sweep_median(untraced) / out["spark_jobs"]
        out["trace.overhead_s"] = sweep_median(traced) - sweep_median(untraced)
        out["traced_jobs"] = statistics.fmean(r.jobs for r in traced)
        out["spans"] = tracer
    return records, out


def per_layer(out: dict, failed: int, attempted: int) -> dict[str, float]:
    """Declared per-layer metric -> value; 0 where a workload has no such layer."""
    g = out.get
    s, rows, goodness = g("subgraph_hac.s", 0.0), g("subgraph_hac.rows", 0.0), g("goodness.calls", 0.0)
    vals = {
        "spark_jobs": g("traced_jobs", 0.0),
        "ckpt_dirs_left": g("ckpt_dirs_left", 0.0),
        "pair_f1": g("pair_f1", 0.0),
        "fail_frac": failed / attempted,
        "forced_merges": g("forced_merges", 0.0),
        "trace.overhead_s": out["trace.overhead_s"],
        "spark.s_per_job": g("spark.s_per_job", 0.0),
        "jvm.peak_rss_mb": g("jvm.peak_rss_mb", 0.0),
        "io.written_mb": g("io.written_bytes", 0.0) / 2**20,
        "edges.num_heavy_edges.s": g("edges.num_heavy_edges.s", 0.0),
        "edges.num_heavy_edges.jobs": g("edges.num_heavy_edges.jobs", 0.0),
        "components.connected_components.s": g("components.connected_components.s", 0.0),
        "components.connected_components.jobs": g("components.connected_components.jobs", 0.0),
        "components.connected_components.calls": g("components.connected_components.calls", 0.0),
        "affinity.size_constrained_affinity.self.s": g("affinity.size_constrained_affinity.self.s", 0.0),
        "terahac.self.s": g("terahac.self.s", 0.0),
        "terahac.self.jobs": g("terahac.self.jobs", 0.0),
        "terahac_local.self.s": g("terahac_local.self.s", 0.0),
        "subgraph_hac.s": s,
        "subgraph_hac.calls": g("subgraph_hac.calls", 0.0),
        "subgraph_hac.rows": rows,
        "subgraph_hac.max_rows": g("subgraph_hac.max_rows", 0.0),
        "subgraph_hac.max_call_s": g("subgraph_hac.max_call_s", 0.0),
        "subgraph_hac.rows_per_s": rows / s if s else 0.0,
        "goodness.calls": goodness,
        "subgraph_hac.merges_per_goodness": g("subgraph_hac.merges", 0.0) / goodness if goodness else 0.0,
    }
    for tag in ("subgraphhac", "edges", "vertices", "cc-labels"):
        for unit in ("s", "jobs"):
            vals[f"io.materialize.{tag}.{unit}"] = g(f"io.materialize.{tag}.{unit}", 0.0)
    return vals


def emit(declared: list[dict], values: dict[str, float]) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    names = [d["name"] for d in declared]
    if set(names) != set(values):
        raise ValueError(
            f"metrics not declared: {sorted(set(values) - set(names))}; "
            f"declared but not measured: {sorted(set(names) - set(values))}"
        )
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_session.py").is_file():
        print(f"hacbench: no engine sources (src/repro, jobs/_session.py) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    from hacbench.workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"hacbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Everything the run writes (checkpoints, Spark scratch, temp files)
    # goes to one directory inside the checkout, removed at exit, also
    # when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CKPT_DIR"] = str(work / "ckpt")
    tempfile.tempdir = None
    cpus = os.sched_getaffinity(0)
    if w.engine == "local":
        # One vCPU for the engine and the probe that calibrates it: see speed.py.
        os.sched_setaffinity(0, {max(cpus)})
    probe = speed.Probe()
    try:
        if w.engine == "spark":
            records, out = run_spark(w, args.seed, args.seconds, bool(args.trace), work, probe)
        else:
            records, out = run_local(w, args.seed, args.seconds, bool(args.trace), probe)
    finally:
        probe.close()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = sum(r.error is not None for r in records)
    errors = sorted({r.error for r in records if r.error})
    correct = failed == 0
    if args.trace and w.engine == "spark" and out["traced_jobs"] != out["spark_jobs"]:
        errors.append(f"tracing changed the Spark job count: {out['spark_jobs']} -> {out['traced_jobs']}")
        correct = False
    if args.trace:
        out.pop("spans").dump(ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.json")
        metrics = emit(spec["per_layer"], per_layer(out, failed, len(records)))
    else:
        metrics = emit(
            spec["end_to_end"], {k: out[k] for k in ("wall_s", "setup_s", "rounds", "peak_rss_mb")}
        )
    for e in errors:
        print(f"hacbench: gate: {e}", file=sys.stderr)
    n_sweeps = len({(r.traced, r.sweep) for r in records if r.timed})
    untraced = [r for r in records if not r.traced]
    out["wall_raw_s"] = sweep_median(untraced, scaled=False)
    out["unit_s"] = statistics.fmean(u for r in untraced if r.timed for u in r.units)
    extra = "".join(
        f" {k}={out[k]:g}"
        for k in ("wall_raw_s", "unit_s", "spark_jobs", "ckpt_dirs_left", "pair_f1")
        if k in out
    )
    print(
        f"hacbench {w.name} seed={args.seed} trace={args.trace}: {len(records)} calls in "
        f"{n_sweeps} sweeps over {len({r.input for r in records})} inputs; gate "
        f"{'passed' if correct else 'FAILED'} ({len(records) - failed}/{len(records)} calls);"
        f" fail_frac={failed / len(records):g}{extra}"
    )
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
