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

TeraHAC's round tail is :func:`contract_reweight` followed by
:func:`prune`: two joins, a group-by, a window and a regroup from the
kernel's mapping to the next barrier, with no vertex table. SCC keeps
:func:`contract` (a partial mapping) and :func:`with_weights`. Nothing
here runs a Spark action except :func:`good_edge_count`.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, SparkSession, Window
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


def contract_reweight(edges_w: DataFrame, mapping: DataFrame) -> DataFrame:
    """Contract a weighted edge table and reweight it in one pass.

    ``mapping`` is ``(old_id, new_id, size, m)`` with a row for *every*
    endpoint of ``edges_w`` (TeraHAC's kernel maps each active vertex
    exactly once), so two inner joins carry the new id, size and M of
    both endpoints together. Each edge is oriented ``u < v`` with its
    endpoint columns, self loops are dropped and parallel edges summed.
    Output: the columns of :func:`with_weights`.
    """

    def side(old: str, new: str) -> DataFrame:
        return mapping.select(
            F.col("old_id").alias(old), F.col("new_id").alias(new),
            F.col("size").alias("s" + new), F.col("m").alias("m" + new),
        )

    e = (
        edges_w.select("u", "v", "raw")
        .join(side("u", "a"), "u")
        .join(side("v", "b"), "v")
        .filter(F.col("a") != F.col("b"))
    )
    lo = F.col("a") < F.col("b")

    def pick(x: str, y: str) -> Column:
        return F.when(lo, F.col(x)).otherwise(F.col(y))

    return (
        e.select(
            pick("a", "b").alias("u"), pick("b", "a").alias("v"), "raw",
            pick("sa", "sb").alias("su"), pick("sb", "sa").alias("sv"),
            pick("ma", "mb").alias("mu"), pick("mb", "ma").alias("mv"),
        )
        # su..mv are constant per (u, v): grouping by them only carries them.
        .groupBy("u", "v", "su", "sv", "mu", "mv")
        .agg(F.sum("raw").alias("raw"))
        .withColumn("w", F.col("raw") / (F.col("su") * F.col("sv")))
        .select("u", "v", "raw", "su", "sv", "mu", "mv", "w")
    )


def prune(edges_w: DataFrame, threshold: float) -> DataFrame:
    """Vertex pruning (Algorithm 1, line 7) in one window pass.

    Removes every vertex whose maximum incident weight is < ``threshold``
    together with all its incident edges: each edge becomes two directed
    rows, one per endpoint ``x``; a window over ``x`` keeps a row iff the
    heaviest row of its partition reaches ``threshold``, and regrouping
    keeps an edge iff both of its rows survive. Vertices left without an
    edge vanish with it. Output: the columns of ``edges_w`` plus
    ``heads``, the number of endpoints whose heaviest row is this edge's.
    A surviving vertex's heaviest edge survives too, so ``sum(heads)``
    counts the surviving vertices.
    """
    cols = edges_w.columns
    by_x = Window.partitionBy("x").orderBy(F.desc("w"))
    rows = edges_w.select(F.explode(F.array("u", "v")).alias("x"), *cols).select(
        *cols,
        (F.first("w").over(by_x) >= threshold).alias("keep"),
        (F.row_number().over(by_x) == 1).cast("long").alias("head"),
    )
    return (
        rows.filter("keep")
        .groupBy(*cols)
        .agg(F.count("*").alias("n"), F.sum("head").alias("heads"))
        .filter(F.col("n") == 2)
        .drop("n")
    )


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
