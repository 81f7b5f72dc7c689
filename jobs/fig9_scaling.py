"""Fig. 9 / Fig. 10 analogue (as a table): Spark wall clock of TeraHAC
against SCC-5 and SCC-25 on the rMAT family (the paper's parameters
a=.6, b=c=.15, d=.1, degree-log weights), t=0.01.

The paper's claim: TeraHAC lands between SCC-5 and SCC-25 and far below
SCC-100. SCC runs in timing mode (``record_levels=False``: only its
final level is collected). Before the timed calls each engine runs once,
untimed, on the first requested scale's graph (SCC with its fewest
rounds): after a warm-up on a one-edge graph, the first rMAT graph timed
still paid a first-use cost of several seconds on both engines. About
1.5 s of it remains on SCC-5 (``results/fig9_scaling.txt``).
"""
from __future__ import annotations

import argparse
import time

from repro.baselines.scc import scc_spark
from repro.core.terahac import terahac
from repro.synth_data import degree_weights_local, edges_to_spark, rmat_edges


def scaling_rows(spark, rmat_scales=(9, 11), scc_rounds=(5, 25)) -> list[dict]:
    """One row per rMAT scale: n, m (undirected), seconds of TeraHAC
    (eps=0.1) and of each SCC-r, and TeraHAC's rounds."""
    rows = []
    for s in rmat_scales:
        pairs = rmat_edges(scale=s)
        n = int(pairs.max()) + 1
        df = edges_to_spark(spark, degree_weights_local(pairs)).cache()
        df.count()
        if s == rmat_scales[0]:
            terahac(spark, df, n, eps=0.1, t=0.01)
            scc_spark(spark, df, n, rounds=min(scc_rounds), t=0.01, record_levels=False)
        t0 = time.time()
        th = terahac(spark, df, n, eps=0.1, t=0.01)
        row = {"scale": s, "n": n, "m": len(pairs), "terahac_s": time.time() - t0,
               "terahac_rounds": th.rounds}
        for r in scc_rounds:
            t0 = time.time()
            scc_spark(spark, df, n, rounds=r, t=0.01, record_levels=False)
            row[f"scc{r}_s"] = time.time() - t0
        df.unpersist()
        rows.append(row)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rmat-scales", nargs="*", type=int, default=[9, 11])
    args = ap.parse_args()
    try:
        from jobs._session import get_spark
    except ModuleNotFoundError:  # invoked as `python jobs/fig9_scaling.py`
        from _session import get_spark

    rows = scaling_rows(get_spark(), tuple(args.rmat_scales))
    print("== Fig. 9/10 analogue: Spark seconds on rMAT (eps=.1, t=.01) ==")
    print(f"{'graph':8s} {'n':>7s} {'m':>9s} {'TeraHAC':>8s} {'SCC-5':>8s} "
          f"{'SCC-25':>8s} {'rounds':>7s}")
    for r in rows:
        print(f"rMAT-{r['scale']:<3d} {r['n']:>7,d} {r['m']:>9,d} {r['terahac_s']:>8.1f} "
              f"{r['scc5_s']:>8.1f} {r['scc25_s']:>8.1f} {r['terahac_rounds']:>7d}")


if __name__ == "__main__":
    main()
