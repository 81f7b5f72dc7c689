"""Distributed connected components on DataFrames.

Min-label propagation with pointer-doubling shortcuts (the "local
contractions" family of Łącki et al. [36], simplified): every vertex
repeatedly adopts the smallest label in its closed neighbourhood, then
shortcuts through its current label's label. Converges in O(log n)
iterations on arbitrary graphs. Graph-DBSCAN's core graph is the only
caller in this repo: affinity clustering (and through it TeraHAC and
SCC) labels its marked forest by pointer jumping instead
(:mod:`repro.graphs.affinity`).

Spark-local-mode job count is the real cost driver of iterative graph
algorithms, so each iteration runs exactly one job: the convergence
check doubles as the materialization of the lazily local-checkpointed
next state.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.io import materialize


def connected_components(
    edges_sym: DataFrame, vertices: DataFrame, max_iter: int = 64
) -> DataFrame:
    """Components of the graph ``(vertices, edges_sym)``.

    ``edges_sym`` is ``(src, dst)`` with *both* orientations present;
    ``vertices`` is ``(id)``. Returns ``(id, component)`` where
    ``component`` is the minimum vertex id in the component. Isolated
    vertices map to themselves.
    """
    # The edge table is re-joined every iteration — checkpoint it once so
    # its (possibly deep) lineage is not re-executed per iteration.
    edges_sym = edges_sym.select("src", "dst").localCheckpoint(eager=False)
    lbl = vertices.select("id", F.col("id").alias("component"))
    for it in range(max_iter):
        # Smallest label among neighbours.
        nbr_min = (
            edges_sym.join(lbl.withColumnRenamed("id", "dst"), "dst")
            .groupBy(F.col("src").alias("id"))
            .agg(F.min("component").alias("nbr_component"))
        )
        step = lbl.join(nbr_min, "id", "left").select(
            "id",
            F.least(
                "component", F.coalesce("nbr_component", "component")
            ).alias("component"),
        )
        # Pointer doubling: component <- component's component.
        parent = step.select(
            F.col("id").alias("component"), F.col("component").alias("grand")
        )
        doubled = step.join(parent, "component", "left").select(
            "id", F.coalesce("grand", "component").alias("component")
        ).localCheckpoint(eager=False)
        # One job: materializes `doubled` and reports convergence.
        changed = (
            doubled.join(lbl.withColumnRenamed("component", "old"), "id")
            .filter(F.col("component") != F.col("old"))
            .count()
        )
        lbl = doubled
        if changed == 0:
            break
        if it % 4 == 3:
            # localCheckpoint propagates the original plan's statistics
            # (originStats), whose BigInt magnitude quadruples per
            # iteration; reset them with a real materialization before
            # they get large enough to slow the optimizer down.
            lbl = materialize(lbl, "cc-labels")
    else:
        raise RuntimeError("connected_components did not converge")
    return lbl
