"""Canonical undirected edge tables and the DataFrame primitives TeraHAC needs.

Representation (used by every algorithm in this repo):

* ``edges``: DataFrame ``(u: long, v: long, raw: double)`` with ``u < v``,
  no self loops, one row per undirected edge. ``raw`` is the *sum of
  point-pair similarities* between the two clusters, i.e. the
  average-linkage weight times ``|u|*|v|``. Keeping the un-normalized sum
  makes graph contraction an exact, associative group-by SUM.
* ``vertices``: DataFrame ``(id: long, size: long, m: double)`` where ``m``
  is the min-merge similarity M(v) of Definition 2 (+inf for singletons).

The displayed average-linkage weight is ``w = raw / (size_u * size_v)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def canonicalize(edges: DataFrame) -> DataFrame:
    """Return ``(u, v, raw)`` with ``u < v``, self-loops dropped and
    parallel edges summed. Accepts any ``(u, v, raw)`` orientation."""
    e = edges.filter(F.col("u") != F.col("v")).select(
        F.least("u", "v").alias("u"),
        F.greatest("u", "v").alias("v"),
        F.col("raw"),
    )
    return e.groupBy("u", "v").agg(F.sum("raw").alias("raw"))


def with_weights(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Attach endpoint metadata and the normalized average-linkage weight.

    Output: ``(u, v, raw, su, sv, mu, mv, w)`` where
    ``w = raw / (su * sv)``.
    """
    vu = vertices.select(
        F.col("id").alias("u"), F.col("size").alias("su"), F.col("m").alias("mu")
    )
    vv = vertices.select(
        F.col("id").alias("v"), F.col("size").alias("sv"), F.col("m").alias("mv")
    )
    return (
        edges.join(vu, "u")
        .join(vv, "v")
        .withColumn("w", F.col("raw") / (F.col("su") * F.col("sv")))
        .select("u", "v", "raw", "su", "sv", "mu", "mv", "w")
    )


def w_max_per_vertex(edges_w: DataFrame) -> DataFrame:
    """Per-vertex maximum incident normalized weight.

    Input must have columns ``u, v, w`` (canonical). Output: ``(id, wmax)``.
    Vertices with no incident edges do not appear.
    """
    both = edges_w.select(F.col("u").alias("id"), "w").unionByName(
        edges_w.select(F.col("v").alias("id"), "w")
    )
    return both.groupBy("id").agg(F.max("w").alias("wmax"))


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree of a canonical edge table. Output ``(id, deg)``."""
    both = edges.select(F.col("u").alias("id")).unionByName(
        edges.select(F.col("v").alias("id"))
    )
    return both.groupBy("id").agg(F.count("*").alias("deg"))


def num_heavy_edges(edges_w: DataFrame, t: float) -> int:
    """Number of (undirected) edges with normalized weight >= t."""
    return edges_w.filter(F.col("w") >= t).count()


def good_edge_count(edges_w: DataFrame, eps: float) -> int:
    """Number of `(1+eps)`-good edges in the *global* graph (Definition 2).

    An edge uv is good iff max(wmax(u), wmax(v)) / min(M(u), M(v), w(uv))
    <= 1 + eps.  This is the quantity plotted in Fig. 15 of the paper.
    Input must come from :func:`with_weights`.
    """
    wm = w_max_per_vertex(edges_w)
    e = (
        edges_w.join(wm.withColumnRenamed("id", "u").withColumnRenamed("wmax", "wmu"), "u")
        .join(wm.withColumnRenamed("id", "v").withColumnRenamed("wmax", "wmv"), "v")
    )
    good = e.filter(
        F.greatest("wmu", "wmv")
        <= (1.0 + eps) * F.least("mu", "mv", "w")
    )
    return good.count()


def contract(edges: DataFrame, mapping: DataFrame) -> DataFrame:
    """Contract a canonical edge table under a vertex -> cluster mapping.

    ``mapping`` is ``(old_id, new_id)``; vertices absent from the mapping
    keep their id (left join + coalesce), so a partial mapping is valid.
    Self loops created by the contraction are dropped; parallel edges are
    summed exactly (``raw`` is a sum of point-pair similarities).
    """
    mu = mapping.select(F.col("old_id").alias("u"), F.col("new_id").alias("nu"))
    mv = mapping.select(F.col("old_id").alias("v"), F.col("new_id").alias("nv"))
    e = (
        edges.join(mu, "u", "left")
        .join(mv, "v", "left")
        .select(
            F.coalesce("nu", "u").alias("a"),
            F.coalesce("nv", "v").alias("b"),
            "raw",
        )
    )
    return canonicalize(e.select(F.col("a").alias("u"), F.col("b").alias("v"), "raw"))


def prune_vertices(
    edges_w: DataFrame, vertices: DataFrame, threshold: float
) -> tuple[DataFrame, DataFrame]:
    """Vertex pruning (Algorithm 1, line 7).

    Removes every vertex whose maximum incident weight is < ``threshold``
    (isolated vertices included: they have no wmax at all) together with
    all its incident edges. Returns ``(edges, vertices)`` restricted to the
    surviving vertices; the edges keep every column of ``edges_w``, so
    TeraHAC's round barrier stores the weighted table.
    """
    keep = w_max_per_vertex(edges_w).filter(F.col("wmax") >= threshold).select("id")
    kept_edges = (
        edges_w.join(keep.withColumnRenamed("id", "u"), "u")
        .join(keep.withColumnRenamed("id", "v"), "v")
        .select(*edges_w.columns)
    )
    kept_vertices = vertices.join(keep, "id")
    return kept_edges, kept_vertices


def init_vertices(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Singleton vertex table for every endpoint of ``edges``:
    size 1, M = +inf (Definition 2)."""
    ids = (
        edges.select(F.col("u").alias("id"))
        .unionByName(edges.select(F.col("v").alias("id")))
        .distinct()
    )
    return ids.select(
        "id", F.lit(1).cast("long").alias("size"), F.lit(float("inf")).alias("m")
    )
