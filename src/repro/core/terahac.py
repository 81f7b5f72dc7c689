"""TeraHAC distributed engine (Algorithm 1 / Fig. 5) on Spark DataFrames.

The paper's Flume-C++ KVTable pipeline maps 1:1 onto Catalyst:

* ``AffinityClustering``   -> :func:`repro.graphs.affinity.size_constrained_affinity`
* ``KeyByClusterId`` + ``GroupByKey`` + per-machine ``SubgraphHac``
                           -> joins + ``groupBy(cluster).applyInPandas``
                              around :func:`repro.core.subgraph_hac.subgraph_hac`
* ``Contract``             -> two inner mapping joins that carry the new
                              id, size and M of both endpoints, then one
                              group-by SUM of raw weights
                              (:func:`repro.graphs.edges.contract_reweight`)
* ``Prune`` / ``RemoveIsolatedVertices``
                           -> one window over each vertex's directed edge
                              rows plus a regroup
                              (:func:`repro.graphs.edges.prune`)

Each inter-cluster edge is shipped to both of its clusters (so every
active vertex sees its full neighbourhood, as required for w_max), each
intra-cluster edge to exactly one. Rounds are separated by one parquet
materialization barrier each (see :mod:`repro.graphs.io` for why
``localCheckpoint`` is not enough). The barrier holds the weighted edge
table ``(u, v, raw, su, sv, mu, mv, w)`` (round 0:
:func:`repro.graphs.edges.singletons`), so the partitioner and the
shipping read one parquet scan; there is no vertex barrier. A barrier is
removed once the next round's is written.

Counts are read off writes the round does anyway, through
``DataFrame.observe``, never by a count action: the edge barrier's
write yields the heavy-edge count (the loop condition) and, for
``collect_stats``, the edge and vertex counts; the kernel barrier's
write yields the round's merges, the only rows the driver receives (the
graph never leaves the cluster). The good-edge count of ``collect_stats``
is observed on the edge barrier's write too, from the endpoints'
``w_max`` that pruning computes anyway, so it adds no Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.dendrogram import Dendrogram
from repro.core.stats import RoundStats, TeraHACResult
from repro.core.subgraph_hac import Merge, subgraph_hac
from repro.graphs.affinity import size_constrained_affinity
from repro.graphs.edges import checked, contract_reweight, prune, singletons
from repro.graphs.io import engine_run, materialize, release

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


def _edge_barrier(
    edges_w: DataFrame, t: float, eps: float
) -> tuple[DataFrame, dict[str, int]]:
    """Write the round barrier and read its counts off the write: edges,
    heavy edges (``w >= t``) and, if ``edges_w`` comes from
    :func:`repro.graphs.edges.prune`, vertices and `(1+eps)`-good edges
    (Definition 2; Fig. 15). No extra Spark job."""
    obs = Observation()
    aggs = [F.count("*").alias("edges"), F.count(F.when(F.col("w") >= t, 1)).alias("heavy")]
    if "heads" in edges_w.columns:
        good = F.greatest("wmu", "wmv") <= (1.0 + eps) * F.least("mu", "mv", "w")
        aggs += [
            F.coalesce(F.sum("heads"), F.lit(0)).alias("vertices"),
            F.count(F.when(good, 1)).alias("good"),
        ]
    e = materialize(edges_w.observe(obs, *aggs).drop("heads", "wmu", "wmv"), "edges")
    return e, obs.get


def terahac(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float = 0.1,
    t: float = 0.01,
    max_subgraph_edges: int = 200_000,
    max_rounds: int = 100,
    collect_stats: bool = False,
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

    The run shuffles into :data:`repro.graphs.io.SHUFFLE_PARTITIONS`
    partitions, and its parquet barriers are removed when it returns or
    raises (:func:`repro.graphs.io.engine_run`).
    """
    with engine_run(spark):
        return _terahac_impl(
            edges, n_base, eps, t, max_subgraph_edges, max_rounds, collect_stats
        )


def _terahac_impl(
    edges: DataFrame,
    n_base: int,
    eps: float,
    t: float,
    max_subgraph_edges: int,
    max_rounds: int,
    collect_stats: bool,
) -> TeraHACResult:
    enc = n_base + 1
    e0 = singletons(
        checked(edges, n_base).select(
            (F.col("u") * enc).alias("u"), (F.col("v") * enc).alias("v"), "raw"
        )
    )
    if collect_stats:  # a prune that keeps every edge, for its counts
        e0 = prune(e0, float("-inf"))
    e, counts = _edge_barrier(e0, t, eps)

    fn = _make_subgraph_fn(eps, n_base)
    merges: list[Merge] = []
    stats: list[RoundStats] = []
    prune_at = t / (1.0 + eps)

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if counts["heavy"] == 0:
            rounds -= 1
            break
        clusters = size_constrained_affinity(e.select("u", "v", "w"), max_subgraph_edges)
        cu = clusters.select(F.col("id").alias("u"), F.col("cluster").alias("cu"))
        cv = clusters.select(F.col("id").alias("v"), F.col("cluster").alias("cv"))
        sub = (
            e.join(cu, "u")
            .join(cv, "v")
            .withColumn("cluster", F.explode(F.array_distinct(F.array("cu", "cv"))))
            .select("cluster", "u", "v", "raw", "su", "sv", "mu", "mv", "cu", "cv")
        )
        # The merges ride on the kernel barrier's write (no collect
        # action); `pos` keeps each call's merges in performed order.
        merged = Observation()
        result = materialize(
            sub.groupBy("cluster").applyInPandas(fn, _RESULT_SCHEMA)
            .withColumn("pos", F.monotonically_increasing_id())
            .observe(merged, F.collect_list(F.when(
                F.col("tag") == 1, F.struct("pos", "id1", "id2", "id3", "val1")
            )).alias("rows"))
            .drop("pos"),
            "subgraphhac",
        )
        round_merges = [
            Merge(parent=r.id1, left=r.id2, right=r.id3, similarity=r.val1)
            for r in sorted(merged.get["rows"])
        ]
        if not round_merges:
            # A mutual-best pair is good and never split (graphs/affinity.py).
            raise RuntimeError(f"round {rounds} made no merge: Lemma 2 invariant broken")

        merges.extend(round_merges)
        stats.append(
            RoundStats(
                round=rounds,
                n_vertices=counts["vertices"] if collect_stats else -1,
                n_edges=counts["edges"] if collect_stats else -1,
                n_heavy=counts["heavy"],
                n_merges=len(round_merges),
                n_good=counts["good"] if collect_stats else None,
            )
        )

        mapping = result.filter(F.col("tag") == 0).select(
            F.col("id1").alias("old_id"),
            F.col("id2").alias("new_id"),
            F.col("id3").alias("size"),
            F.col("val1").alias("m"),
        )
        prev = e
        e, counts = _edge_barrier(prune(contract_reweight(e, mapping), prune_at), t, eps)
        # Nothing reads the last round's barriers any more.
        release(prev, result)
    else:
        last = stats[-1] if stats else None
        raise RuntimeError(f"TeraHAC did not finish within {max_rounds} rounds; last round: {last}")

    return TeraHACResult(
        dendrogram=Dendrogram(n_base=n_base, merges=merges),
        rounds=rounds,
        stats=stats,
    )
