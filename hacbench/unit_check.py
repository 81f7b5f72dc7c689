"""Does the calibration unit depend on the engine's load?

    python3 hacbench/unit_check.py --workload rmat-local --pairs 10

Alternates an engine call with an idle pause of the same length and
measures the unit the way a benchmark run does: on a local workload
three units right after the call (or the pause), on one vCPU; on the
Spark workload units sampled during it. If the unit tracked the
engine's own work rather than the host's speed, the ``busy`` units
would differ from the ``idle`` ones. Prints one line per pair and the median ratio.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hacbench import speed  # noqa: E402
from hacbench.run import SAMPLE_S  # noqa: E402
from hacbench.workloads import WARMUP, WORKLOADS, make_inputs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed)
    work = ROOT / ".bench_work" / f"unit-check-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CKPT_DIR"] = str(work / "ckpt")
    if w.engine == "local":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe, spark = speed.Probe(), None
    try:
        if w.engine == "spark":
            from hacbench import sparkenv
            from repro.core.terahac import terahac
            from repro.synth_data import edges_to_spark

            spark = sparkenv.start(ROOT, work / "spark")

            def call(inp):
                terahac(spark, edges_to_spark(spark, inp.edges), inp.n, eps=w.eps, t=w.t,
                        max_subgraph_edges=w.max_subgraph_edges)

            call(WARMUP)

            def measure(body):
                with probe.sampling(SAMPLE_S) as units:
                    body()
                return units
        else:
            from repro.core.terahac_local import terahac_local

            def call(inp):
                terahac_local(inp.edges, inp.n, eps=w.eps, t=w.t, max_subgraph_edges=w.max_subgraph_edges)

            def measure(body):
                body()
                return probe.units(3)

        ratios = []
        for k in range(args.pairs):
            inp = inputs[k % len(inputs)]
            t0 = time.perf_counter()
            busy = measure(lambda: call(inp))
            wall = time.perf_counter() - t0
            idle = measure(lambda: time.sleep(wall))
            b, i = statistics.fmean(busy), statistics.fmean(idle)
            ratios.append(b / i)
            print(f"pair {k}: call {wall:.3f} s; unit busy {b * 1e3:.2f} ms ({len(busy)}), "
                  f"idle {i * 1e3:.2f} ms ({len(idle)}); busy/idle {b / i:.3f}", flush=True)
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(f"{w.name}: busy/idle median {statistics.median(ratios):.3f}, quartiles {q[0]:.3f}-{q[2]:.3f}")
    finally:
        if spark is not None:
            sparkenv.stop(spark)
        probe.close()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
