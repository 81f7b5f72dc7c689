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

from repro.graphs.components import connected_components
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
    """Graph DBSCAN (§6.3) in-process. Returns labels over 0..n_base-1."""
    adj: dict[int, dict[int, float]] = {v: {} for v in range(n_base)}
    for u, v, w in edges:
        if u == v:
            continue
        adj[u][v] = max(adj[u].get(v, 0.0), w)
        adj[v][u] = adj[u][v]

    heavy = {
        u: {v: w for v, w in nb.items() if w >= eps} for u, nb in adj.items()
    }
    core = {u for u, nb in heavy.items() if len(nb) >= min_pts}

    # components of core-core edges at weight >= eps
    labels = np.full(n_base, -1, dtype=np.int64)
    comp: dict[int, int] = {}
    for s in sorted(core):
        if s in comp:
            continue
        stack, members = [s], []
        comp[s] = s
        while stack:
            x = stack.pop()
            members.append(x)
            for y in heavy[x]:
                if y in core and y not in comp:
                    comp[y] = s
                    stack.append(y)
    next_label = 0
    lab_of: dict[int, int] = {}
    for u in sorted(core):
        c = comp[u]
        if c not in lab_of:
            lab_of[c] = next_label
            next_label += 1
        labels[u] = lab_of[c]
    # non-core: attach to most similar core neighbour at >= eps, else singleton
    for u in range(n_base):
        if labels[u] >= 0:
            continue
        cands = [(w, v) for v, w in heavy[u].items() if v in core]
        if cands:
            labels[u] = labels[max(cands)[1]]
        else:
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
    """Graph DBSCAN (§6.3) on DataFrames. ``edges`` is ``(u, v, w)``."""
    with run_dir(spark):
        e = edges.filter(F.col("u") != F.col("v")).select(
            F.least("u", "v").alias("u"), F.greatest("u", "v").alias("v"), "w"
        ).groupBy("u", "v").agg(F.max("w").alias("w"))
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
