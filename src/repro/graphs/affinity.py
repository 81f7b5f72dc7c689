"""Affinity clustering (Bateni et al. [7]) and the size-constrained variant
(Epasto et al. [27]) used as TeraHAC's graph partitioner.

Affinity clustering: each vertex marks its highest-weight incident edge
(deterministic tie-break on the larger neighbour id); the clusters are the
connected components spanned by the marked edges. The size-constrained
variant additionally splits any cluster ``c`` (min member id) whose
*shipped subgraph load* (sum of member degrees — the number of edge rows
that would be sent to one machine) exceeds a cap, into
``nparts = ceil(load / cap)`` parts: member ``x`` goes to part
``key mod nparts`` of ``c``, labelled ``-(its min member id) - 1``,
where ``key = min(x, best(x))`` if ``best(best(x)) == x``, else ``x``.
Lemma 7 makes any partition correct; this one also makes every TeraHAC
round merge:

* every marked component holds a mutual-best pair (weights never drop
  along marked pointers; the id tie-break rules out longer cycles);
* such a pair has ``w = w_max(u) = w_max(v)``, so it is (1+eps)-good by
  the Lemma 2 invariant ``w_max <= (1+eps)·M``;
* the key keeps it in one part, whose SubgraphHAC call therefore merges.

The marked graph is therefore a functional graph whose only cycles are
mutual-best 2-cycles. Pointing the smaller end of each pair at itself
turns it into a forest, which pointer jumping (``p <- p∘p``, the "local
contractions" of Łącki et al. [36]) labels in O(log depth) self-joins of
the n-row pointer table. Each self-join is one eager checkpoint whose
observed count of unfinished rows stops the loop, with no count action;
a window over the roots then takes each tree's min id and load. Generic
connected components over the edge table is not needed.

Once a round's edges fit the cap, the forest is labelled on the driver
instead. TeraHAC passes :func:`size_constrained_affinity` the edge count
its barrier's write observed (no job); when it is at most ``max_load``,
the ``(id, best, deg)`` table is collected once through Arrow, labelled
by :func:`repro.core.terahac_local._affinity_partition`, the local
engine's own function, and handed to the shipping joins as a local
DataFrame. That table has at most ``2 * max_load`` rows of three longs,
less than one kernel call's input of about ``max_load`` rows of ten
columns, so the cap stays the one bound on what a machine holds. On the
traced ``wq-spark`` seed-1 call (107 edges, cap 150; Spark ``local[4]`` on
4 vCPUs) the partitioner fell from 14 jobs and 1.05 s to 2 jobs and
0.27 s. :func:`affinity_clusters` (SCC's partitioner) has no cap, so it
always jumps pointers on Spark.
"""
from __future__ import annotations

import pyarrow as pa
from pyspark.sql import DataFrame, Observation, Window
from pyspark.sql import functions as F

from repro.core.terahac_local import _affinity_partition
from repro.graphs.io import materialize, release


def _marked(edges_w: DataFrame) -> DataFrame:
    """``(id, best, deg)``: best edge and degree of each vertex, one aggregate."""
    sym = edges_w.select(F.col("u").alias("src"), F.col("v").alias("dst"), "w").unionByName(
        edges_w.select(F.col("v").alias("src"), F.col("u").alias("dst"), "w")
    )
    # max of (w, dst) struct == max weight, then max dst: deterministic.
    return sym.groupBy("src").agg(
        F.max(F.struct("w", "dst")).alias("b"), F.count("*").alias("deg")
    ).select(F.col("src").alias("id"), F.col("b.dst").alias("best"), "deg")


def _roots(ptr: DataFrame) -> DataFrame:
    """Pointer jumping on a forest ``(id, ptr, done, ...)`` whose roots
    point at themselves and have ``done`` set. Returns the same columns
    with ``ptr`` the root of each row's tree.

    ``done`` means "``ptr`` is a root": a row takes its pointer's pointer
    and its pointer's flag, so after ``k`` jumps exactly the rows within
    ``2^k - 1`` of their root are done, and the loop stops once all are.
    Each jump is one eager ``localCheckpoint`` that also observes how
    many rows are not done, so convergence costs no action of its own.
    """
    barrier = None
    for it in range(64):
        up = ptr.select(
            F.col("id").alias("ptr"), F.col("ptr").alias("up"), F.col("done").alias("up_done")
        )
        left = Observation()
        ptr = (
            ptr.drop("done")
            .join(up, "ptr")
            .drop("ptr")
            .withColumnsRenamed({"up": "ptr", "up_done": "done"})
            .observe(left, F.count(F.when(~F.col("done"), 1)).alias("n"))
            .localCheckpoint(eager=True)
        )
        if barrier is not None:  # the checkpoint above holds what it read
            release(barrier)
            barrier = None
        if left.get["n"] == 0:
            return ptr
        if it % 8 == 7:
            # Each self-join squares the plan's size estimate, which
            # localCheckpoint carries over; a parquet barrier resets it
            # before trees deeper than 255 slow the optimizer down.
            ptr = barrier = materialize(ptr, "affinity-ptr")
    raise RuntimeError("pointer jumping did not converge")


def _labelled(edges_w: DataFrame) -> DataFrame:
    """``(id, key, ptr, cluster, load)`` for every endpoint of
    ``edges_w``: ``ptr`` is the root of its marked tree, ``cluster`` the
    tree's min member id, ``load`` its degree sum and ``key`` the split
    key."""
    marked = _marked(edges_w)
    back = marked.select(F.col("id").alias("best"), F.col("best").alias("back"))
    mutual = F.col("back") == F.col("id")
    # The smaller end of a mutual-best pair is its tree's root.
    root = mutual & (F.col("id") < F.col("best"))
    forest = marked.join(back, "best").select(
        "id",
        "deg",
        F.when(mutual, F.least("id", "best")).otherwise(F.col("id")).alias("key"),
        F.when(root, F.col("id")).otherwise(F.col("best")).alias("ptr"),
        root.alias("done"),
    )
    tree = Window.partitionBy("ptr")
    return _roots(forest).select(
        "id",
        "key",
        "ptr",
        F.min("id").over(tree).alias("cluster"),
        F.sum("deg").over(tree).alias("load"),
    )


def best_edges(edges_w: DataFrame) -> DataFrame:
    """Per-vertex best incident edge of a canonical weighted edge table
    (columns ``u, v, w``). Returns ``(src, dst)`` — the marked edge of each
    vertex, max weight with ties broken toward the larger neighbour id."""
    return _marked(edges_w).select(F.col("id").alias("src"), F.col("best").alias("dst"))


def affinity_clusters(edges_w: DataFrame) -> DataFrame:
    """Plain affinity clustering. Returns ``(id, cluster)`` for every
    endpoint of ``edges_w``, where cluster is the min vertex id of the
    component of marked edges. A vertex without an edge has no row; it
    is a cluster of its own."""
    return _labelled(edges_w).select("id", "cluster")


def _driver_clusters(edges_w: DataFrame, max_load: int) -> DataFrame:
    """:func:`size_constrained_affinity`'s ``(id, cluster)``, labelled on
    the driver: the ``(id, best, deg)`` table is collected once through
    Arrow, labelled by the local engine's rule and handed back as a
    local DataFrame."""
    cols = _marked(edges_w).toArrow().to_pydict()
    deg = dict(zip(cols["id"], cols["deg"]))
    labels = _affinity_partition(dict(zip(cols["id"], cols["best"])), deg, max_load)
    # From Arrow, not from a list of rows: the joins it feeds ran
    # 0.2-0.4 s faster (120- and 20k-vertex graphs, local[4]).
    return edges_w.sparkSession.createDataFrame(pa.table({
        "id": pa.array(labels.keys(), pa.int64()),
        "cluster": pa.array(labels.values(), pa.int64()),
    }))


def size_constrained_affinity(
    edges_w: DataFrame, max_load: int, edges: int | None = None
) -> DataFrame:
    """Affinity clustering with a target shipped load per part.

    ``max_load`` targets the number of incident-edge rows a single
    SubgraphHAC call receives (the paper uses 10M; tests use far less).
    It is a target, not a bound: the split spreads members by key, not by
    degree, so one part's load reaches 2.19x ``max_load`` (the 96 rMAT-8
    graphs of the ``rmat-local-split`` benchmark pools at 500) and 1.5x
    on a 120-vertex random graph at 40. Returns ``(id, cluster)`` for
    every endpoint of ``edges_w``; no two clusters or parts share an id.
    TeraHAC passes its round barrier, the weighted edge table, and needs
    no vertex table: only endpoints are shipped.

    ``edges`` is the row count of ``edges_w`` if known (TeraHAC reads it
    off its barrier's write). When it is at most ``max_load``, the
    forest is labelled on the driver (:func:`_driver_clusters`): its
    pointer table then has at most ``2 * max_load`` rows of three longs,
    less than one kernel call's input.
    """
    if edges is not None and edges <= max_load:
        return _driver_clusters(edges_w, max_load)
    nparts = F.greatest(F.lit(1), F.ceil(F.col("load") / F.lit(max_load)))
    lab = _labelled(edges_w).select(
        "id", "ptr", (nparts > 1).alias("split"), F.pmod("key", nparts).alias("part")
    )
    # The tree window's key plus the part index: no exchange is added.
    low = F.min("id").over(Window.partitionBy("ptr", "part"))
    out = lab.select(
        "id", F.when(F.col("split"), -low - 1).otherwise(low).alias("cluster")
    )
    # Consumed twice (u- and v-side joins); cut the lineage here.
    return out.localCheckpoint(eager=False)
