"""Canonical undirected edge tables and the DataFrame primitives of the
Spark engines.

Representation (used by every algorithm in this repo):

* ``edges``: DataFrame ``(u: long, v: long, raw: double)`` with ``u < v``,
  no self loops, one row per undirected edge. ``raw`` is the *sum of
  point-pair similarities* between the two clusters, i.e. the
  average-linkage weight times ``|u|*|v|``. Keeping the un-normalized sum
  makes graph contraction an exact, associative group-by SUM.
* the weighted table ``(u, v, raw, su, sv, mu, mv, w)``: each edge with
  the size and min-merge similarity M (Definition 2) of both endpoints
  and the displayed average-linkage weight ``w = raw / (su * sv)``.
  There is no vertex table: a round needs only the endpoints of edges.

Round 0 is :func:`singletons` of the input as :func:`checked` reads it.
Every later round of TeraHAC and SCC comes from
:func:`contract_reweight` (TeraHAC then applies :func:`prune`): two
joins, a group-by and, for pruning, a window and a regroup from the
round's mapping to the next barrier. Nothing here runs a Spark action
except :func:`good_edge_count`.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
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


def checked(edges: DataFrame, n_base: int) -> DataFrame:
    """Input edges ``(u, v, w)`` over ``0..n_base-1`` as ``(u: long, v:
    long, raw: double)``, each row checked inside the job that reads it:
    an id outside ``[0, n_base)`` or a weight that is not positive and
    finite fails that job with an error naming the edge, so the check
    adds no Spark job. The local engines reject the same edges
    (:func:`repro.core.localgraph.build`)."""
    u, v, w = F.col("u").cast("long"), F.col("v").cast("long"), F.col("w").cast("double")
    ok = u.between(0, n_base - 1) & v.between(0, n_base - 1) & (w > 0) & (w < float("inf"))
    bad = F.raise_error(F.format_string(
        f"edge (%s, %s, %s): vertex id outside [0, {n_base}) or weight not positive and finite",
        u, v, w,
    ))
    return edges.select(
        *(F.when(ok, c).otherwise(bad).alias(name) for name, c in (("u", u), ("v", v), ("raw", w)))
    )


def singletons(edges: DataFrame) -> DataFrame:
    """Round-0 weighted table of ``(u, v, raw)`` in any orientation: the
    edges canonicalized, every vertex a singleton (size 1, M = +inf), so
    ``w = raw`` with no join. Output: the columns of
    :func:`contract_reweight`."""
    one = F.lit(1).cast("long")
    inf = F.lit(float("inf"))
    return canonicalize(edges).select(
        "u", "v", "raw", one.alias("su"), one.alias("sv"), inf.alias("mu"),
        inf.alias("mv"), F.col("raw").alias("w"),
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
    Input is a weighted table (:func:`singletons`, :func:`contract_reweight`).
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


def contract_reweight(edges_w: DataFrame, mapping: DataFrame) -> DataFrame:
    """Contract a weighted edge table and reweight it in one pass.

    ``mapping`` is ``(old_id, new_id, size, m)`` with a row for *every*
    endpoint of ``edges_w`` (TeraHAC's kernel maps each active vertex
    exactly once; SCC maps every cluster), so two inner joins carry the
    new id, size and M of both endpoints together. Each edge is oriented
    ``u < v`` with its endpoint columns, self loops are dropped and
    parallel edges summed.
    Output: the weighted table ``(u, v, raw, su, sv, mu, mv, w)``.
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
