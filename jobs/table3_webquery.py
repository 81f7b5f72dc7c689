"""Table 3 + §6.3 — web-query clustering: runtimes, precision/recall,
and the Fig. 14 shrink-rate comparison, on the web-query-lite graph.

The paper's Web-Query graph (31B vertices, 8.6T edges, BERT weights,
53,659 human-labelled pairs) is replaced by the planted-partition
web-query-lite generator (see DESIGN.md §2.4); the experiment itself is
faithful: TeraHAC(eps=0.1, t=0.05) vs SCC-50 vs SCC-5 vs graph-DBSCAN,
all on the *Spark* engines, wall-clock timed, then scored by pairwise
precision/recall against the labelled pairs (a pair is positive iff both
endpoints land in the same cluster). TeraHAC's PR points come from
flattening its dendrogram at several thresholds, SCC's from its levels,
DBSCAN's from (eps, minPts) settings — the paper's §6.3 protocol.
"""
from __future__ import annotations

import argparse
import time


from repro.baselines.dbscan import graph_dbscan_spark
from repro.baselines.scc import scc_spark
from repro.core.terahac import terahac
from repro.eval.flatten_eval import pair_precision_recall
from repro.synth_data import edges_to_spark, web_query_lite


def run_webquery(
    spark,
    n: int = 20_000,
    scc_high: int = 50,
    scc_low: int = 5,
    t: float = 0.05,
    collect_stats: bool = True,
    seed: int = 21,
) -> dict:
    """Run the full §6.3 experiment; returns timings, PR curves, shrink."""
    edges, truth, pairs = web_query_lite(n=n, seed=seed)
    df = edges_to_spark(spark, edges)
    out: dict = {"n": n, "m": len(edges)}

    t0 = time.time()
    th = terahac(spark, df, n, eps=0.1, t=t, collect_stats=collect_stats)
    out["terahac_s"] = time.time() - t0
    out["terahac_rounds"] = th.rounds
    out["terahac_stats"] = th.stats
    out["terahac_pr"] = [
        (ft, pair_precision_recall(th.dendrogram.flatten(ft), pairs))
        for ft in (0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.3, 0.15, t)
    ]

    for label, r in (("scc_high", scc_high), ("scc_low", scc_low)):
        t0 = time.time()
        sc = scc_spark(spark, df, n, rounds=r, t=t)
        out[f"{label}_s"] = time.time() - t0
        out[f"{label}_rounds"] = r
        out[f"{label}_pr"] = [
            (i, pair_precision_recall(lab, pairs)) for i, lab in enumerate(sc.levels)
        ]
        out[f"{label}_stats"] = (sc.nodes_per_round, sc.edges_per_round)

    t0 = time.time()
    db_pr = []
    for eps, mp in ((0.9, 4), (0.8, 4), (0.7, 3)):
        lab = graph_dbscan_spark(spark, df, n, eps=eps, min_pts=mp)
        db_pr.append(((eps, mp), pair_precision_recall(lab, pairs)))
    out["dbscan_s"] = (time.time() - t0) / 3  # per-clustering time
    out["dbscan_pr"] = db_pr
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--scc-high", type=int, default=50)
    args = ap.parse_args()
    try:
        from jobs._session import get_spark
    except ModuleNotFoundError:  # invoked as `python jobs/table3_webquery.py`
        from _session import get_spark

    spark = get_spark()
    r = run_webquery(spark, n=args.n, scc_high=args.scc_high)

    print(f"\nweb-query-lite: n={r['n']:,} undirected edges={r['m']:,}\n")
    print("== Table 3 analogue: running times of one run (s); the paper reports medians ==")
    print(
        f"TeraHAC {r['terahac_s']:.0f}  SCC-{args.scc_high} {r['scc_high_s']:.0f}  "
        f"SCC-5 {r['scc_low_s']:.0f}  DBSCAN {r['dbscan_s']:.0f}"
    )
    print("\n== Precision / recall (Fig. 13 analogue) ==")
    for name in ("terahac", "scc_high", "scc_low", "dbscan"):
        print(f"-- {name}")
        for key, pr in r[f"{name}_pr"]:
            print(
                f"   {key}: precision={pr.precision:.3f} recall={pr.recall:.3f}"
            )
    print("\n== Graph shrinkage per round (Fig. 14 analogue) ==")
    print("TeraHAC: round, vertices, edges")
    for st in r["terahac_stats"]:
        print(f"   {st.round:3d} {st.n_vertices:>10} {st.n_edges:>12}")
    nodes, edges_ = r["scc_high_stats"]
    print(f"SCC-{args.scc_high}: round, vertices, edges")
    for i, (nn, mm) in enumerate(zip(nodes, edges_), 1):
        print(f"   {i:3d} {nn:>10} {mm:>12}")


if __name__ == "__main__":
    main()
