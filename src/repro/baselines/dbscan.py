"""DBSCAN baselines.

* :func:`dbscan_metric` — classic DBSCAN over a full distance matrix
  (the paper's sklearn baseline for Table 2; grid-searched by the jobs).
* :func:`graph_dbscan_local` / :func:`graph_dbscan_spark` — the paper's
  §6.3 adaptation of DBSCAN to similarity graphs: a vertex is *core* if
  it has >= minPts incident edges of weight >= eps; core clusters are the
  connected components of the core-core subgraph at weight >= eps;
  non-core vertices attach to their most similar core neighbour of
  weight >= eps, otherwise become singletons.

Noise/singleton handling: every unassigned point gets its own label
(matching §6.3's "forms a singleton cluster"), so ARI/precision-recall
treat noise as non-matches rather than one giant noise cluster.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.localgraph import DSU, check_edge, scan
from repro.graphs.components import connected_components
from repro.graphs.edges import checked
from repro.graphs.io import run_dir


def dbscan_metric(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN on an ``n x n`` distance matrix.

    ``min_pts`` counts the point itself (sklearn convention). Returns
    labels of length n; noise points get fresh singleton labels.
    """
    n = dist.shape[0]
    within = dist <= eps
    np.fill_diagonal(within, True)
    core = within.sum(axis=1) >= min_pts

    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for s in range(n):
        if not core[s] or labels[s] >= 0:
            continue
        # BFS over density-connected cores; borders join but don't expand.
        labels[s] = next_label
        frontier = [s]
        while frontier:
            x = frontier.pop()
            if not core[x]:
                continue
            for y in np.flatnonzero(within[x]):
                if labels[y] < 0:
                    labels[y] = next_label
                    frontier.append(int(y))
        next_label += 1
    for s in range(n):
        if labels[s] < 0:
            labels[s] = next_label
            next_label += 1
    return labels


def graph_dbscan_local(
    edges: list[tuple[int, int, float]], n_base: int, eps: float, min_pts: int
) -> np.ndarray:
    """Graph DBSCAN (§6.3) in-process. Returns labels over 0..n_base-1.
    Raises :func:`repro.core.localgraph.check_edge`'s ``ValueError``."""
    # heavy[u][v]: the max weight of the u-v edges, if it is >= eps
    heavy: dict[int, dict[int, float]] = {v: {} for v in range(n_base)}
    for u, v, w in edges:
        check_edge(u, v, w, n_base)
        if u != v and w >= eps:
            heavy[u][v] = heavy[v][u] = max(heavy[u].get(v, 0.0), w)
    core = {u for u, nb in heavy.items() if len(nb) >= min_pts}

    # components of core-core edges at weight >= eps, labelled by min id
    dsu = DSU()
    for u in core:
        for v in heavy[u]:
            if v in core:
                dsu.union(u, v)
    labels = np.full(n_base, -1, dtype=np.int64)
    lab_of: dict[int, int] = {}
    for u in sorted(core):
        labels[u] = lab_of.setdefault(dsu.find(u), len(lab_of))
    # non-core: attach to the most similar core neighbour at >= eps (max
    # (w, id), the scan's best edge), else singleton
    to_core = {
        u: {v: w for v, w in nb.items() if v in core}
        for u, nb in heavy.items() if u not in core
    }
    best = scan(to_core, dict.fromkeys(heavy, 1), eps)[0]
    next_label = len(lab_of)
    for u in range(n_base):
        if u in best:
            labels[u] = labels[best[u]]
        elif labels[u] < 0:
            labels[u] = next_label
            next_label += 1
    return labels


def graph_dbscan_spark(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float,
    min_pts: int,
) -> np.ndarray:
    """Graph DBSCAN (§6.3) on DataFrames. ``edges`` is ``(u, v, w)``; a
    bad edge fails the first job (:func:`repro.graphs.edges.checked`)."""
    with run_dir(spark):
        e = checked(edges, n_base).filter(F.col("u") != F.col("v")).select(
            F.least("u", "v").alias("u"), F.greatest("u", "v").alias("v"), "raw"
        ).groupBy("u", "v").agg(F.max("raw").alias("w"))
        heavy = e.filter(F.col("w") >= eps).localCheckpoint(eager=True)
        sym = heavy.select(F.col("u").alias("src"), F.col("v").alias("dst"), "w").unionByName(
            heavy.select(F.col("v").alias("src"), F.col("u").alias("dst"), "w")
        )
        core = (
            sym.groupBy(F.col("src").alias("id"))
            .agg(F.count("*").alias("deg"))
            .filter(F.col("deg") >= min_pts)
            .select("id")
            .localCheckpoint(eager=True)
        )
        core_edges = (
            sym.join(core.withColumnRenamed("id", "src"), "src")
            .join(core.withColumnRenamed("id", "dst"), "dst")
            .select("src", "dst")
        )
        comp = connected_components(core_edges, core)
        # non-core: best core neighbour at >= eps
        noncore_best = (
            sym.join(core.withColumnRenamed("id", "src"), "src", "left_anti")
            .join(comp.withColumnRenamed("id", "dst"), "dst")
            .groupBy(F.col("src").alias("id"))
            .agg(F.max(F.struct("w", "component")).alias("b"))
            .select("id", F.col("b.component").alias("component"))
        )
        assigned = comp.unionByName(noncore_best).collect()
    labels = np.full(n_base, -1, dtype=np.int64)
    lab_of: dict[int, int] = {}
    for r in sorted(assigned, key=lambda r: (r.component, r.id)):
        labels[r.id] = lab_of.setdefault(r.component, len(lab_of))
    nxt = len(lab_of)
    for i in range(n_base):
        if labels[i] < 0:
            labels[i] = nxt
            nxt += 1
    return labels
