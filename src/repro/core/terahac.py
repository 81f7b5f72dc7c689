"""TeraHAC distributed engine (Algorithm 1 / Fig. 5) on Spark DataFrames.

The paper's Flume-C++ KVTable pipeline maps 1:1 onto Catalyst:

* ``AffinityClustering``   -> :func:`repro.graphs.affinity.size_constrained_affinity`
* ``KeyByClusterId`` + ``GroupByKey`` + per-machine ``SubgraphHac``
                           -> joins + ``groupBy(cluster).applyInPandas``
                              around :func:`repro.core.subgraph_hac.subgraph_hac`
* ``Contract``             -> two mapping joins + group-by SUM of raw weights
                              (:func:`repro.graphs.edges.contract`)
* ``Prune`` / ``RemoveIsolatedVertices``
                           -> :func:`repro.graphs.edges.prune_vertices`

Each inter-cluster edge is shipped to both of its clusters (so every
active vertex sees its full neighbourhood, as required for w_max), each
intra-cluster edge to exactly one. Dendrogram nodes are collected on the
driver each round; the graph itself never leaves the cluster. Rounds are
separated by one parquet materialization barrier each (see
:mod:`repro.graphs.io` for why ``localCheckpoint`` is not enough). The
barrier holds the weighted edge table ``(u, v, raw, su, sv, mu, mv, w)``
of :func:`repro.graphs.edges.with_weights`, so the heavy-edge count, the
partitioner and the shipping all read one parquet scan; there is no
vertex barrier, and the vertex table is a lazy plan that only
``collect_stats`` counts.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.dendrogram import Dendrogram
from repro.core.stats import RoundStats, TeraHACResult
from repro.core.subgraph_hac import Merge, subgraph_hac
from repro.graphs.affinity import size_constrained_affinity
from repro.graphs.edges import (
    canonicalize,
    contract,
    good_edge_count,
    init_vertices,
    num_heavy_edges,
    prune_vertices,
    with_weights,
)
from repro.graphs.io import materialize, run_dir

_RESULT_SCHEMA = (
    "tag int, id1 long, id2 long, id3 long, val1 double"
)


def _make_subgraph_fn(eps: float, n_base: int):
    """Build the per-partition pandas UDF: one SubgraphHAC call per group."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        cluster = int(pdf["cluster"].iloc[0])
        rows = list(zip(
            pdf["u"].tolist(),
            pdf["v"].tolist(),
            pdf["raw"].tolist(),
            pdf["su"].tolist(),
            pdf["sv"].tolist(),
            pdf["mu"].tolist(),
            pdf["mv"].tolist(),
            (pdf["cu"] == cluster).tolist(),
            (pdf["cv"] == cluster).tolist(),
        ))
        res = subgraph_hac(rows, eps, n_base)
        out = [
            (0, old, new, s, mm) for old, (new, s, mm) in res.mapping.items()
        ] + [
            (1, mg.parent, mg.left, mg.right, mg.similarity) for mg in res.merges
        ]
        return pd.DataFrame(out, columns=["tag", "id1", "id2", "id3", "val1"])

    return fn


def terahac(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float = 0.1,
    t: float = 0.01,
    max_subgraph_edges: int = 200_000,
    max_rounds: int = 100,
    collect_stats: bool = False,
    shuffle_partitions: int | None = 8,
) -> TeraHACResult:
    """Run distributed TeraHAC.

    ``edges``: DataFrame ``(u, v, w)`` — undirected weighted graph over
    original vertex ids ``0..n_base-1``, positive weights. Returns the
    same :class:`TeraHACResult` as the local engine; dendrogram node ids
    use the shared ``(rep, size)`` encoding. An id outside
    ``0..n_base-1`` or a weight that is not positive and finite fails
    the first Spark job with an error that names the edge.

    ``max_subgraph_edges`` is the shipped load (edge rows) that the
    partitioner targets per SubgraphHAC call; an over-target affinity
    cluster is split into ``ceil(load / cap)`` parts, whose loads can
    still exceed it (1.3-1.7x measured; see
    :func:`repro.graphs.affinity.size_constrained_affinity`).

    ``shuffle_partitions`` temporarily overrides
    ``spark.sql.shuffle.partitions`` for the run — iterative graph
    rounds on a single box are scheduler-latency-bound, so small graphs
    want few partitions (None leaves the session setting untouched).
    The run's parquet barriers are removed when it returns or raises.
    """
    prev_sp = spark.conf.get("spark.sql.shuffle.partitions")
    if shuffle_partitions is not None:
        spark.conf.set("spark.sql.shuffle.partitions", str(shuffle_partitions))
    try:
        with run_dir(spark):
            return _terahac_impl(
                spark, edges, n_base, eps, t, max_subgraph_edges, max_rounds,
                collect_stats,
            )
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev_sp)


def _terahac_impl(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float,
    t: float,
    max_subgraph_edges: int,
    max_rounds: int,
    collect_stats: bool,
) -> TeraHACResult:
    enc = n_base + 1
    uc, vc, wc = F.col("u").cast("long"), F.col("v").cast("long"), F.col("w").cast("double")
    # Checked inside the first write's job: no extra Spark job.
    ok = uc.between(0, n_base - 1) & vc.between(0, n_base - 1) & (wc > 0) & (wc < float("inf"))
    bad = F.raise_error(F.format_string(
        f"edge (%s, %s, %s): vertex id outside [0, {n_base}) or weight not positive and finite",
        uc, vc, wc,
    ))

    def checked(c):
        return F.when(ok, c).otherwise(bad)

    one = F.lit(1).cast("long")
    inf = F.lit(float("inf"))
    # Every vertex starts as a singleton (size 1, M = +inf), so the
    # weighted table needs no join: w = raw / (1 * 1).
    e = materialize(
        canonicalize(
            edges.select(
                (checked(uc) * enc).alias("u"),
                (checked(vc) * enc).alias("v"),
                checked(wc).alias("raw"),
            )
        ).select(
            "u", "v", "raw", one.alias("su"), one.alias("sv"), inf.alias("mu"),
            inf.alias("mv"), F.col("raw").alias("w"),
        ),
        "edges",
    )
    v = init_vertices(spark, e)  # lazy: only collect_stats counts it

    fn = _make_subgraph_fn(eps, n_base)
    merges: list[Merge] = []
    stats: list[RoundStats] = []
    prune_at = t / (1.0 + eps)

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        n_heavy = num_heavy_edges(e, t)
        if n_heavy == 0:
            rounds -= 1
            break
        n_good = None
        if collect_stats:
            n_good = good_edge_count(e, eps)
            n_vertices, n_edges = v.count(), e.count()
        else:
            n_vertices = n_edges = -1

        clusters = size_constrained_affinity(e.select("u", "v", "w"), max_subgraph_edges)
        cu = clusters.select(F.col("id").alias("u"), F.col("cluster").alias("cu"))
        cv = clusters.select(F.col("id").alias("v"), F.col("cluster").alias("cv"))
        sub = (
            e.join(cu, "u")
            .join(cv, "v")
            .withColumn("cluster", F.explode(F.array_distinct(F.array("cu", "cv"))))
            .select("cluster", "u", "v", "raw", "su", "sv", "mu", "mv", "cu", "cv")
        )
        result = materialize(
            sub.groupBy("cluster").applyInPandas(fn, _RESULT_SCHEMA),
            "subgraphhac",
        )
        round_merges = [
            Merge(parent=r.id1, left=r.id2, right=r.id3, similarity=r.val1)
            for r in result.filter(F.col("tag") == 1).collect()
        ]
        mapping = result.filter(F.col("tag") == 0).select(
            F.col("id1").alias("old_id"),
            F.col("id2").alias("new_id"),
            F.col("id3").alias("size"),
            F.col("val1").alias("m"),
        )

        if not round_merges:
            # A mutual-best pair is good and never split (graphs/affinity.py).
            raise RuntimeError(f"round {rounds} made no merge: Lemma 2 invariant broken")

        merges.extend(round_merges)
        stats.append(
            RoundStats(
                round=rounds,
                n_vertices=n_vertices,
                n_edges=n_edges,
                n_heavy=n_heavy,
                n_merges=len(round_merges),
                n_good=n_good,
            )
        )

        e2 = contract(e, mapping.select("old_id", "new_id"))
        v2 = mapping.select(
            F.col("new_id").alias("id"), "size", "m"
        ).distinct()
        e, v = prune_vertices(with_weights(e2, v2), v2, prune_at)
        # Round barrier: parquet round-trip, not localCheckpoint — see
        # repro.graphs.io.materialize for why (originStats compounding).
        e = materialize(e, "edges")
    else:
        last = stats[-1] if stats else None
        raise RuntimeError(f"TeraHAC did not finish within {max_rounds} rounds; last round: {last}")

    return TeraHACResult(
        dendrogram=Dendrogram(n_base=n_base, merges=merges),
        rounds=rounds,
        stats=stats,
    )
