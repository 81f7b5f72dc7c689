"""Affinity clustering (Bateni et al.) and its size-constrained variant."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.affinity import (
    _driver_clusters,
    _marked,
    affinity_clusters,
    size_constrained_affinity,
)
from repro.graphs.edges import singletons
from repro.graphs.io import run_dir
from repro.oracle import assert_equivalent
from repro.synth_data import edges_to_spark, random_weighted_graph
from tests.util import brute_components, labelling_paths


def _weighted(spark, edges):
    e = edges_to_spark(spark, edges).select("u", "v", F.col("w").alias("raw"))
    return singletons(e).select("u", "v", "w")


@pytest.fixture(scope="module")
def graph(spark):
    edges = random_weighted_graph(n=70, avg_deg=5, seed=13)
    return edges, _weighted(spark, edges)


def test_best_edges_oracle(spark, graph):
    """Each vertex's marked edge: max weight, ties to the larger id."""
    _, ew = graph
    assert_equivalent(
        _marked(ew).select(F.col("id").alias("src"), F.col("best").alias("dst")),
        """
        WITH sym AS (
          SELECT u AS src, v AS dst, w FROM ew
          UNION ALL SELECT v AS src, u AS dst, w FROM ew
        ),
        ranked AS (
          SELECT src, dst,
                 row_number() OVER (PARTITION BY src ORDER BY w DESC, dst DESC) rn
          FROM sym
        )
        SELECT src, dst FROM ranked WHERE rn = 1
        """,
        ew=ew,
    )


def test_affinity_clusters_match_local_reference(spark, graph):
    edges, ew = graph
    got = {r.id: r.cluster for r in affinity_clusters(ew).collect()}
    # local reference: mark best edge per vertex, components of marked
    best = {}
    adj = {}
    for u, vv, w in edges:
        adj.setdefault(u, []).append((w, vv))
        adj.setdefault(vv, []).append((w, u))
    marked = []
    for x, cands in adj.items():
        best_w, best_y = max(cands)
        marked.append((x, best_y))
    comp = brute_components([(a, b) for a, b in marked], list(adj))
    assert got == {x: comp[x] for x in adj}


def test_affinity_each_best_edge_intra_cluster(spark, graph):
    """The paper's §5 motivation: every vertex's best edge is
    intra-cluster in (unconstrained) affinity clustering."""
    edges, ew = graph
    cl = {r.id: r.cluster for r in affinity_clusters(ew).collect()}
    adj = {}
    for u, vv, w in edges:
        adj.setdefault(u, []).append((w, vv))
        adj.setdefault(vv, []).append((w, u))
    for x, cands in adj.items():
        _, y = max(cands)
        assert cl[x] == cl[y]


def test_size_constraint_splits_big_clusters(spark, graph):
    edges, ew = graph
    unconstrained = size_constrained_affinity(ew, max_load=1 << 30)
    tiny = size_constrained_affinity(ew, max_load=20)
    n_unc = unconstrained.select("cluster").distinct().count()
    n_tiny = tiny.select("cluster").distinct().count()
    assert n_tiny >= n_unc
    # with the tiny cap, every cluster's shipped load stays bounded-ish
    deg = {}
    for u, vv, _ in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[vv] = deg.get(vv, 0) + 1
    cl = {r.id: r.cluster for r in tiny.collect()}
    loads = {}
    for x, c in cl.items():
        loads[c] = loads.get(c, 0) + deg.get(x, 0)
    # key splitting is approximate; allow 3x slack over the cap
    assert max(loads.values()) <= 3 * 20


def test_size_constraint_noop_below_cap(spark, graph):
    _, ew = graph
    a = {r.id: r.cluster for r in size_constrained_affinity(ew, 1 << 30).collect()}
    b = {r.id: r.cluster for r in affinity_clusters(ew).collect()}
    assert a == b


def test_refines_affinity_partition(spark, graph):
    """Size splitting only refines: two vertices in different affinity
    clusters never land in the same split cluster."""
    _, ew = graph
    base = {r.id: r.cluster for r in affinity_clusters(ew).collect()}
    split = {r.id: r.cluster for r in size_constrained_affinity(ew, 20).collect()}
    seen = {}
    for x, c in split.items():
        assert seen.setdefault(c, base[x]) == base[x]


def _reference(edges, cap=None):
    """Brute force: best edge by max (w, neighbour id), components labelled
    by min member id, an over-cap component split by the key rule into
    parts labelled ``-(min member) - 1``."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((w, v))
        adj.setdefault(v, []).append((w, u))
    best = {x: max(cands)[1] for x, cands in adj.items()}
    comp = brute_components(list(best.items()), list(adj))
    if cap is None:
        return comp
    load = {}
    for x, c in comp.items():
        load[c] = load.get(c, 0) + len(adj[x])
    part = {}
    for x, c in comp.items():
        nparts = -(-load[c] // cap)
        key = min(x, best[x]) if best[best[x]] == x else x
        part[x] = (c, key % nparts)
    low = {}
    for x, p in part.items():
        low[p] = min(low.get(p, x), x)
    return {
        x: comp[x] if load[comp[x]] <= cap else -low[p] - 1 for x, p in part.items()
    }


# A path whose weights rise toward its end: every vertex marks its right
# neighbour, so the marked tree is one chain of depth n-2 below the
# mutual-best pair (n-2, n-1). At n=300 pointer jumping needs 9 jumps
# and passes its parquet barrier after the 8th.
_PATH = [(i, i + 1, float(i + 1)) for i in range(299)]
# All weights equal: the larger-neighbour-id tie-break decides every mark.
_TIES = [(u, v, 1.0) for u, v, _ in random_weighted_graph(n=60, avg_deg=4, seed=3)]


@pytest.mark.parametrize("edges", [_PATH, _TIES], ids=["deep-chain", "all-ties"])
@pytest.mark.parametrize("cap", [None, 1 << 30, 12])
def test_affinity_labels_equal_brute_force(spark, edges, cap):
    """Both labelling paths give the brute-force labels: pointer jumping
    on Spark, and the driver's labelling of the collected best-edge
    table, which ``size_constrained_affinity`` takes once the edges fit
    the cap. With no cap the driver is given the whole graph's load, so
    no cluster splits."""
    ew = _weighted(spark, edges)
    want = _reference(edges, cap)
    with run_dir(spark):
        if cap is None:
            jumped = affinity_clusters(ew)
        else:
            jumped = size_constrained_affinity(ew, cap)
        driver = _driver_clusters(ew, cap or 2 * len(edges))
        for got in (jumped, driver):
            assert {r.id: r.cluster for r in got.collect()} == want


def test_affinity_labels_on_the_driver_once_edges_fit(spark, monkeypatch):
    """The dispatch: ``edges <= max_load`` labels on the driver; a larger
    or an unknown count jumps pointers on Spark. Both give the same
    labels."""
    ew = _weighted(spark, _TIES)
    paths = labelling_paths(monkeypatch)
    m = len(_TIES)
    with run_dir(spark):
        labels = [
            {r.id: r.cluster for r in size_constrained_affinity(ew, cap, n).collect()}
            for cap, n in ((m, m), (m - 1, m), (m, None))
        ]
    assert paths == ["driver", "jump", "jump"]
    assert labels == [_reference(_TIES, m), _reference(_TIES, m - 1), _reference(_TIES, m)]
