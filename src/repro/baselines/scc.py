"""SCC (Monath et al. [40]): sub-cluster component hierarchical clustering.

The state-of-the-art distributed baseline the paper compares against.
SCC runs ``r`` rounds over a geometrically decreasing threshold schedule
tau_1 > ... > tau_r = t (from the max weight down to the weight
threshold). In round i every current cluster selects its highest-weight
incident edge of weight >= tau_i (if any); the connected components
spanned by the selected edges are contracted (average linkage on the
contracted weights). Each round's assignment of original vertices to
clusters is one level of the output hierarchy — the paper evaluates SCC
by scoring *every* level and taking the best.

Two engines with identical semantics: a Spark engine (timing studies,
Tables 3 / Fig 9-10 analogues) and a local engine (Table 2 quality grid).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import localgraph
from repro.core.goodness import encode_leaf
from repro.graphs.affinity import affinity_clusters
from repro.graphs.edges import checked, contract_reweight, singletons
from repro.graphs.io import engine_run, materialize, release


def threshold_schedule(w_upper: float, t: float, rounds: int) -> list[float]:
    """Geometric schedule tau_i = w_upper * (t/w_upper)^(i/r), i=1..r.

    Ends exactly at ``t``; requires 0 < t <= w_upper.
    """
    if not (0 < t <= w_upper):
        raise ValueError(f"need 0 < t <= w_upper, got t={t}, w_upper={w_upper}")
    return [w_upper * (t / w_upper) ** (i / rounds) for i in range(1, rounds + 1)]


@dataclass
class SCCResult:
    """Per-level flat clusterings (labels over original vertices) and
    per-level cluster counts."""

    levels: list[np.ndarray] = field(default_factory=list)
    n_clusters: list[int] = field(default_factory=list)
    edges_per_round: list[int] = field(default_factory=list)
    nodes_per_round: list[int] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Local engine
# --------------------------------------------------------------------- #
def scc_local(
    edges: list[tuple[int, int, float]],
    n_base: int,
    rounds: int,
    t: float,
) -> SCCResult:
    """Run SCC in-process. ``edges`` are ``(u, v, w)`` over 0..n_base-1."""
    adj, _ = localgraph.build(edges, n_base)
    # Every vertex is a cluster of every level, isolated or not.
    leaves = [encode_leaf(v, n_base) for v in range(n_base)]
    adj = {e: adj.get(e, {}) for e in leaves}
    size = dict.fromkeys(leaves, 1)
    assign = np.array(leaves, dtype=np.int64)  # original vertex -> cluster

    w_upper = max(localgraph.scan(adj, size, t)[1].values(), default=0.0)
    result = SCCResult()
    if w_upper <= 0:
        for _ in range(rounds):
            result.levels.append(np.arange(n_base, dtype=np.int64))
            result.n_clusters.append(n_base)
        return result
    taus = threshold_schedule(max(w_upper, t), t, rounds)

    for tau in taus:
        best, w_max, _, n_edges = localgraph.scan(adj, size, t)
        result.nodes_per_round.append(len(adj))
        result.edges_per_round.append(n_edges)
        marked = {a: b for a, b in best.items() if w_max[a] >= tau}
        deg = {a: len(nb) for a, nb in adj.items()}
        relabel = localgraph.affinity_partition(marked, deg, localgraph.NO_CAP)
        new_size: dict[int, int] = {}
        for a, na in relabel.items():
            new_size[na] = new_size.get(na, 0) + size[a]
        adj, size = localgraph.contract(adj, relabel), new_size
        assign = np.array([relabel[c] for c in assign], dtype=np.int64)
        # Cluster label = its min original vertex id, as on Spark.
        result.levels.append(assign // (n_base + 1))
        result.n_clusters.append(len(adj))
    return result


# --------------------------------------------------------------------- #
# Spark engine
# --------------------------------------------------------------------- #
def scc_spark(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    rounds: int,
    t: float,
    record_levels: bool = True,
) -> SCCResult:
    """Run SCC on Spark DataFrames. ``edges`` is ``(u, v, w)``.

    Each round keeps TeraHAC's weighted edge barrier (round 0:
    :func:`repro.graphs.edges.singletons`; then
    :func:`repro.graphs.edges.contract_reweight`) and the assignment
    barrier ``(orig, cur, prev)`` of original vertices to clusters. A
    cluster's id is its min original vertex id, so ``orig == cur`` counts
    the clusters; that count, the edge count and ``w_upper`` are
    observed on the writes, so per-round stats (Fig. 14 analogue) cost
    no job. When ``record_levels`` is False only the final level is
    collected (pure-timing mode). The run's parquet barriers are removed
    when it returns or raises. An id outside ``0..n_base-1`` or a weight
    that is not positive and finite fails the first Spark job with an
    error that names the edge (``scc_local`` raises ``ValueError``).
    """
    with engine_run(spark):
        return _scc_spark_impl(edges, n_base, rounds, t, record_levels)


def _barrier(df: DataFrame, tag: str, **aggs: Column) -> tuple[DataFrame, dict]:
    """Write ``df`` as a barrier and read ``aggs`` off the write."""
    obs = Observation()
    return materialize(df.observe(obs, *(c.alias(k) for k, c in aggs.items())), tag), obs.get


def _scc_spark_impl(
    edges: DataFrame, n_base: int, rounds: int, t: float, record_levels: bool
) -> SCCResult:
    e, counts = _barrier(
        singletons(checked(edges, n_base)),
        "scc-edges",
        edges=F.count("*"),
        w_upper=F.max("w"),
    )
    w_upper = counts["w_upper"]
    result = SCCResult()
    if w_upper is None or w_upper <= 0:
        lab = np.arange(n_base, dtype=np.int64)
        for _ in range(rounds):
            result.levels.append(lab.copy())
            result.n_clusters.append(n_base)
        return result
    taus = threshold_schedule(max(w_upper, t), t, rounds)

    # original vertex -> current cluster id; a leaf plan, not a barrier
    assign = edges.sparkSession.range(n_base).select(
        F.col("id").alias("orig"), F.col("id").alias("cur")
    )
    clusters = n_base
    for i, tau in enumerate(taus):
        result.nodes_per_round.append(clusters)
        result.edges_per_round.append(counts["edges"])
        labels = affinity_clusters(e.filter(F.col("w") >= tau))
        prev = assign
        assign, seen = _barrier(
            assign.join(labels, assign.cur == labels.id, "left").select(
                "orig",
                F.coalesce("cluster", "cur").alias("cur"),
                F.col("cur").alias("prev"),
            ),
            "scc-assign",
            clusters=F.count(F.when(F.col("orig") == F.col("cur"), 1)),
        )
        clusters = seen["clusters"]
        if i < len(taus) - 1:
            # Each new cluster's size is its number of assignment rows.
            mapping = assign.groupBy(F.col("cur").alias("new_id")).agg(
                F.count("*").alias("size"), F.collect_set("prev").alias("olds")
            ).select(
                F.explode("olds").alias("old_id"), "new_id", "size",
                F.lit(float("inf")).alias("m"),
            )
            prev_e = e
            e, counts = _barrier(contract_reweight(e, mapping), "scc-edges", edges=F.count("*"))
            release(prev_e, prev)
        if record_levels or i == len(taus) - 1:
            lab = np.zeros(n_base, dtype=np.int64)
            for r in assign.select("orig", "cur").collect():
                lab[r.orig] = r.cur
            result.levels.append(lab)
            result.n_clusters.append(clusters)
    return result
