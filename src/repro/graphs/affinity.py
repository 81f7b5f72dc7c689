"""Affinity clustering (Bateni et al. [7]) and the size-constrained variant
(Epasto et al. [27]) used as TeraHAC's graph partitioner.

Affinity clustering: each vertex marks its highest-weight incident edge
(deterministic tie-break on the larger neighbour id); the clusters are the
connected components spanned by the marked edges. The size-constrained
variant additionally splits any cluster ``c`` (min member id) whose
*shipped subgraph load* (sum of member degrees — the number of edge rows
that would be sent to one machine) exceeds a cap, into
``nparts = ceil(load / cap)`` parts: member ``x`` goes to part
``-(c·nparts + key mod nparts) - 1``, where ``key = min(x, best(x))`` if
``best(best(x)) == x``, else ``x``. Lemma 7 makes any partition correct;
this one also makes every TeraHAC round merge:

* every marked component holds a mutual-best pair (weights never drop
  along marked pointers; the id tie-break rules out longer cycles);
* such a pair has ``w = w_max(u) = w_max(v)``, so it is (1+eps)-good by
  the Lemma 2 invariant ``w_max <= (1+eps)·M``;
* the key keeps it in one part, whose SubgraphHAC call therefore merges.

:func:`repro.core.terahac_local._affinity_partition` applies the same rule.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.components import connected_components


def _marked(edges_w: DataFrame) -> DataFrame:
    """``(id, best, deg)``: best edge and degree of each vertex, one aggregate."""
    sym = edges_w.select(F.col("u").alias("src"), F.col("v").alias("dst"), "w").unionByName(
        edges_w.select(F.col("v").alias("src"), F.col("u").alias("dst"), "w")
    )
    # max of (w, dst) struct == max weight, then max dst: deterministic.
    return sym.groupBy("src").agg(
        F.max(F.struct("w", "dst")).alias("b"), F.count("*").alias("deg")
    ).select(F.col("src").alias("id"), F.col("b.dst").alias("best"), "deg")


def _clusters(marked: DataFrame, vertices: DataFrame) -> DataFrame:
    """``(id, cluster)``, components of the marked edges. A mutual pair's
    edge appears twice, which min-label propagation tolerates."""
    sym = marked.select(F.col("id").alias("src"), F.col("best").alias("dst")).unionByName(
        marked.select(F.col("best").alias("src"), F.col("id").alias("dst"))
    )
    comp = connected_components(sym, vertices.select("id"))
    return comp.withColumnRenamed("component", "cluster")


def best_edges(edges_w: DataFrame) -> DataFrame:
    """Per-vertex best incident edge of a canonical weighted edge table
    (columns ``u, v, w``). Returns ``(src, dst)`` — the marked edge of each
    vertex, max weight with ties broken toward the larger neighbour id."""
    return _marked(edges_w).select(F.col("id").alias("src"), F.col("best").alias("dst"))


def affinity_clusters(edges_w: DataFrame, vertices: DataFrame) -> DataFrame:
    """Plain affinity clustering. Returns ``(id, cluster)`` where cluster is
    the min vertex id of the component of marked edges."""
    return _clusters(_marked(edges_w), vertices)


def size_constrained_affinity(
    edges_w: DataFrame, vertices: DataFrame, max_load: int
) -> DataFrame:
    """Affinity clustering with a target shipped load per part.

    ``max_load`` targets the number of incident-edge rows a single
    SubgraphHAC call receives (the paper uses 10M; tests use far less).
    It is a target, not a bound: the split spreads members by key, not by
    degree, so one part's load reaches 1.3-1.7x ``max_load`` (rMAT-8
    graphs at 500, a 120-vertex random graph at 40). Returns ``(id,
    cluster)`` with cluster ids that are opaque longs.
    """
    marked = _marked(edges_w).localCheckpoint(eager=False)  # read by CC and the split
    back = marked.select(F.col("id").alias("best"), F.col("best").alias("back"))
    keyed = marked.join(back, "best").select(
        "id",
        "deg",
        F.when(F.col("back") == F.col("id"), F.least("id", "best"))
        .otherwise(F.col("id"))
        .alias("key"),
    )
    loaded = _clusters(marked, vertices).join(keyed, "id", "left").fillna({"deg": 0})
    load = loaded.groupBy("cluster").agg(F.sum("deg").alias("load"))
    parts = load.select(
        "cluster",
        F.greatest(F.lit(1), F.ceil(F.col("load") / F.lit(max_load))).alias("nparts"),
    )
    out = loaded.join(parts, "cluster").select(
        "id",
        F.when(F.col("nparts") <= 1, F.col("cluster")).otherwise(
            -(F.col("cluster") * F.col("nparts") + F.pmod("key", "nparts")) - 1
        ).alias("cluster"),
    )
    # Consumed twice (u- and v-side joins); cut the CC lineage here.
    return out.localCheckpoint(eager=False)
