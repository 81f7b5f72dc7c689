"""Affinity clustering (Bateni et al. [7]) and the size-constrained variant
(Epasto et al. [27]) used as TeraHAC's graph partitioner.

Affinity clustering: each vertex marks its highest-weight incident edge
(deterministic tie-break on the larger neighbour id); the clusters are the
connected components spanned by the marked edges. The size-constrained
variant additionally splits any cluster whose *shipped subgraph load*
(sum of member degrees — the number of edge rows that would be sent to one
machine) exceeds a cap, by hashing members into sub-clusters. Lemma 7
guarantees TeraHAC is correct under any partition, so the split only
affects performance, never correctness.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.components import connected_components
from repro.graphs.edges import degrees


def best_edges(edges_w: DataFrame) -> DataFrame:
    """Per-vertex best incident edge of a canonical weighted edge table
    (columns ``u, v, w``). Returns ``(src, dst)`` — the marked edge of each
    vertex, max weight with ties broken toward the larger neighbour id."""
    sym = edges_w.select(F.col("u").alias("src"), F.col("v").alias("dst"), "w").unionByName(
        edges_w.select(F.col("v").alias("src"), F.col("u").alias("dst"), "w")
    )
    # max of (w, dst) struct == max weight, then max dst: deterministic.
    return (
        sym.groupBy("src")
        .agg(F.max(F.struct("w", "dst")).alias("b"))
        .select("src", F.col("b.dst").alias("dst"))
    )


def affinity_clusters(edges_w: DataFrame, vertices: DataFrame) -> DataFrame:
    """Plain affinity clustering. Returns ``(id, cluster)`` where cluster is
    the min vertex id of the component of marked edges."""
    marked = best_edges(edges_w)
    sym = marked.unionByName(
        marked.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    ).distinct()
    comp = connected_components(sym, vertices.select("id"))
    return comp.withColumnRenamed("component", "cluster")


def size_constrained_affinity(
    edges_w: DataFrame, vertices: DataFrame, max_load: int
) -> DataFrame:
    """Affinity clustering with shipped-load cap.

    ``max_load`` bounds the number of incident-edge rows a single
    SubgraphHAC call receives (the paper uses 10M; tests use far less).
    Returns ``(id, cluster)`` with cluster ids that are opaque longs.
    """
    clusters = affinity_clusters(edges_w, vertices)
    loaded = clusters.join(degrees(edges_w), "id", "left").fillna({"deg": 0})
    load = loaded.groupBy("cluster").agg(F.sum("deg").alias("load"))
    parts = load.select(
        "cluster",
        F.greatest(F.lit(1), F.ceil(F.col("load") / F.lit(max_load))).alias("nparts"),
    )
    out = loaded.join(parts, "cluster").select(
        "id",
        F.when(F.col("nparts") <= 1, F.col("cluster")).otherwise(
            # Opaque split id; a hash collision would only coarsen the
            # partition, which is still a valid partition (Lemma 7).
            F.xxhash64(F.col("cluster"), F.pmod(F.xxhash64("id"), F.col("nparts")))
        ).alias("cluster"),
    )
    # Consumed twice (u- and v-side joins); cut the CC lineage here.
    return out.localCheckpoint(eager=False)
