"""Spark engines vs local engines and vs the paper's theorems.

The distributed TeraHAC, SCC and graph-DBSCAN must implement exactly the
same algorithms as their in-process twins — the Table 2 quality grid
runs on the local engines and the timing tables on the Spark engines,
so this equivalence is what makes the two sets of results one system.
"""
from __future__ import annotations

import itertools
import os
import sys

import numpy as np
import pytest
from pyspark.errors import SparkRuntimeException
from pyspark.sql import functions as F

from repro.baselines.dbscan import graph_dbscan_local, graph_dbscan_spark
from repro.baselines.hac_exact import exact_hac_graph
from repro.baselines.scc import scc_local, scc_spark
from repro.core.dendrogram import empirical_approx_ratio
import repro.core.terahac as terahac_module
from repro.core.terahac import terahac
from repro.core.terahac_local import terahac_local
from repro.eval.metrics import ari
from repro.graphs import components, io
from repro.synth_data import edges_to_spark, random_weighted_graph, web_query_lite
from tests.util import labelling_paths, validate_good_merges

N = 120


@pytest.fixture(scope="module")
def workload(spark):
    edges = random_weighted_graph(n=N, avg_deg=5, seed=5)
    return edges, edges_to_spark(spark, edges).cache()


def test_terahac_spark_eps0_matches_exact(spark, workload):
    edges, df = workload
    res = terahac(spark, df, N, eps=0.0, t=0.0)
    ex = exact_hac_graph(edges, N)
    assert res.dendrogram.internal_cluster_sets() == ex.internal_cluster_sets()
    assert res.forced_merges == 0


def test_terahac_spark_approx_ratio(spark, workload):
    edges, df = workload
    res = terahac(spark, df, N, eps=0.1, t=0.0)
    assert empirical_approx_ratio(res.dendrogram, edges) <= 1.1 * (1 + 1e-9)
    validate_good_merges(edges, res.dendrogram, 0.1)


def test_terahac_spark_threshold_and_stats(spark, workload):
    edges, df = workload
    res = terahac(spark, df, N, eps=0.1, t=0.3, collect_stats=True)
    # stats populated and consistent
    assert len(res.stats) == res.rounds
    assert all(st.n_good is not None and st.n_vertices > 0 for st in res.stats)
    assert sum(st.n_merges for st in res.stats) == len(res.dendrogram.merges)
    # Lemma 8 on the Spark output
    for mn in res.dendrogram.flat_cluster_min_merge(0.3):
        assert mn >= 0.3 / 1.1 * (1 - 1e-9)
    # Spark == local, round by round (the vertex table is never stored)
    assert res.stats == terahac_local(edges, N, eps=0.1, t=0.3, collect_stats=True).stats


def test_terahac_spark_stats_equal_local_under_cap(spark, workload):
    """Spark == local round by round also when the cap splits clusters."""
    edges, df = workload
    sp = terahac(spark, df, N, eps=0.1, t=0.3, max_subgraph_edges=40, collect_stats=True)
    lo = terahac_local(edges, N, eps=0.1, t=0.3, max_subgraph_edges=40, collect_stats=True)
    assert sp.stats == lo.stats


def _barrier_tags(monkeypatch) -> list[str]:
    """The tags of every barrier written from now on, in order; any
    connected-components pass fails the test."""
    tags = []
    real_cc, real_mat = components.connected_components, io.materialize

    def no_cc(*args, **kwargs):
        raise AssertionError("connected_components called")

    def recording(df, tag="step"):
        tags.append(tag)
        return real_mat(df, tag)

    for name, mod in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, val in list(vars(mod).items()):
                if val is real_cc:
                    monkeypatch.setattr(mod, attr, no_cc)
                elif val is real_mat:
                    monkeypatch.setattr(mod, attr, recording)
    return tags


def test_terahac_spark_round_barriers(spark, workload, monkeypatch):
    """Guards the per-round Spark cost: one weighted edge barrier up
    front, then one kernel barrier and one edge barrier per Spark round,
    and no connected-components pass (affinity labels by pointer
    jumping). Under cap 40 at t=0.3 the edges per round are 300, 134, 8:
    rounds 1 and 2 run on Spark, and round 2's barrier (2 * 8 <= 40)
    hands round 3 to the driver, which writes no barrier."""
    edges, df = workload
    tags = _barrier_tags(monkeypatch)
    res = terahac(spark, df, N, eps=0.1, t=0.3, max_subgraph_edges=40)
    lo = terahac_local(edges, N, eps=0.1, t=0.3, max_subgraph_edges=40)
    spark_rounds = next(r for r in range(1, lo.rounds) if 2 * lo.stats[r].n_edges <= 40)
    assert 1 < spark_rounds < res.rounds == lo.rounds
    assert tags == ["edges"] + ["subgraphhac", "edges"] * spark_rounds


def _assert_same_merges(sp, lo):
    """The same merge sets, similarities within 1e-9."""

    def key(mg):
        return (mg.parent, mg.left, mg.right)

    a = sorted(sp.dendrogram.merges, key=key)
    b = sorted(lo.dendrogram.merges, key=key)
    assert [key(x) for x in a] == [key(x) for x in b]
    for x, y in zip(a, b):
        assert x.similarity == pytest.approx(y.similarity, rel=1e-9)


def test_terahac_spark_stats_convention_without_collect_stats(spark, workload):
    """A plain call reports -1 vertices and edges and no good-edge count
    in every round, Spark and driver rounds alike (cap 40, t=0.3: rounds
    1-2 on Spark, round 3 on the driver); the heavy edges and the merges
    are the local engine's."""
    edges, df = workload
    sp = terahac(spark, df, N, eps=0.1, t=0.3, max_subgraph_edges=40)
    lo = terahac_local(edges, N, eps=0.1, t=0.3, max_subgraph_edges=40)
    assert sp.rounds == lo.rounds == 3
    assert [(st.n_vertices, st.n_edges, st.n_good) for st in sp.stats] == [(-1, -1, None)] * 3
    assert [(st.round, st.n_heavy, st.n_merges) for st in sp.stats] == [
        (st.round, st.n_heavy, st.n_merges) for st in lo.stats
    ]
    _assert_same_merges(sp, lo)


@pytest.mark.parametrize(
    "t,cap,spark_rounds",
    [(0.3, 200_000, 1), (0.0, 40, 9), (0.3, 1, 5)],
    ids=["after-round-1", "mid-run", "never"],
)
def test_terahac_spark_equals_local_across_hand_off(
    spark, workload, monkeypatch, t, cap, spark_rounds
):
    """Spark == local wherever the run moves to the driver: after round 1
    (default cap, t=0.3: 2 * 99 edges fit), mid-run (cap 40, t=0: edges
    300, ..., 49, 22, 7, so rounds 1-9 run on Spark and round 10 on the
    driver) and never (cap 1: 2 * edges <= 1 cannot hold while a heavy
    edge remains; 5 rounds). Caps 40 and 1 split clusters, so both
    engines must also apply one split rule. Same rounds, same
    ``collect_stats`` stats, same merge sets with similarities within
    1e-9."""
    edges, df = workload
    tags = _barrier_tags(monkeypatch)
    sp = terahac(spark, df, N, eps=0.1, t=t, max_subgraph_edges=cap, collect_stats=True)
    lo = terahac_local(edges, N, eps=0.1, t=t, max_subgraph_edges=cap, collect_stats=True)
    assert tags.count("subgraphhac") == spark_rounds
    assert sp.rounds == lo.rounds
    assert sp.stats == lo.stats
    _assert_same_merges(sp, lo)


def test_terahac_spark_equals_local_across_labelling_switch(spark, workload, monkeypatch):
    """Spark == local when a run's Spark rounds label their forests both
    ways (cap 200, t=0.2: edges 300, 184, 28). Round 1's 300 edges exceed
    the cap, so pointer jumping labels it on Spark. Round 2's 184 fit the
    cap, so its forest is labelled on the driver, while 2 * 184 > 200
    keeps the round itself on Spark. Round 2's barrier (2 * 28 <= 200)
    then hands round 3 to the driver. Same rounds, ``collect_stats``
    stats and merge sets (similarities within 1e-9)."""
    edges, df = workload
    paths = labelling_paths(monkeypatch)
    tags = _barrier_tags(monkeypatch)
    sp = terahac(spark, df, N, eps=0.1, t=0.2, max_subgraph_edges=200, collect_stats=True)
    lo = terahac_local(edges, N, eps=0.1, t=0.2, max_subgraph_edges=200, collect_stats=True)
    assert [st.n_edges for st in lo.stats] == [300, 184, 28]
    assert paths == ["jump", "driver"]
    assert tags.count("subgraphhac") == 2
    assert sp.rounds == lo.rounds == 3
    assert sp.stats == lo.stats
    _assert_same_merges(sp, lo)


def test_terahac_spark_max_rounds_counts_driver_rounds(spark, workload):
    """``max_rounds`` counts Spark and driver rounds together: at t=0.3
    the run needs 3 rounds, round 1 on Spark and rounds 2-3 on the
    driver, so ``max_rounds=2`` runs out in the driver's tail and names
    its last round."""
    _, df = workload
    with pytest.raises(
        RuntimeError,
        match=r"within 2 rounds; last round: RoundStats\(round=2, n_vertices=-1, n_edges=-1, ",
    ):
        terahac(spark, df, N, eps=0.1, t=0.3, max_rounds=2)


_groups = itertools.count()


def _jobs_of(spark, monkeypatch, call):
    """Run ``call()`` in a job group of its own. Returns its result, its
    number of Spark jobs and every DataFrame that ``count()`` ran on. The
    group id is fresh on every call: the status tracker keeps the jobs of
    earlier groups, which a reused id would count again."""
    counts = []
    cls = type(spark.range(0))  # the session's concrete DataFrame class
    real_count = cls.count

    def counting(self):
        counts.append(self)
        return real_count(self)

    monkeypatch.setattr(cls, "count", counting)
    sc = spark.sparkContext
    group = f"job-budget-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        res = call()
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    return res, jobs, counts


def test_terahac_spark_job_budget(spark, workload, monkeypatch):
    """Guards the per-round Spark cost by counting the jobs of one
    ``terahac()`` call (N=120, t=0.3, 3 rounds) through a job group.
    Each budget is the count measured on Spark 4.1 in local mode plus one
    job of slack. Round 1 runs on Spark: its 300 edges fit the default
    cap, so its forest is labelled on the driver from one collect of the
    best-edge table; then one kernel barrier and one fused
    contract-reweight-prune barrier, every count read off the writes.
    Its barrier, 99 edges, is collected once for rounds 2-3 on the
    driver: 17 jobs, also as a session's first call (29 when pointer
    jumping labelled round 1; AQE makes each shuffle stage a job of its
    own). ``collect_stats`` reads every count, the good edges too, off
    the writes: 19 jobs. Under cap 40 rounds 1-2 (300 and 134 edges) jump
    pointers on Spark: 55 jobs, so one more job a Spark round shows
    twice. A count action or an extra join breaks the budgets. No
    ``DataFrame.count`` may run."""
    edges, _ = workload
    df = edges_to_spark(spark, edges)  # uncached: the count cannot depend on test order
    for kwargs, budget in (({}, 18), ({"collect_stats": True}, 20), ({"max_subgraph_edges": 40}, 56)):
        res, jobs, counts = _jobs_of(
            spark, monkeypatch, lambda: terahac(spark, df, N, eps=0.1, t=0.3, **kwargs)
        )
        assert res.rounds == 3
        assert counts == []
        assert jobs <= budget, (kwargs, jobs)
        if kwargs.get("collect_stats"):
            assert [st.n_good for st in res.stats] == [52, 20, 2]


def test_terahac_spark_keeps_one_round_of_barriers(spark, monkeypatch):
    """A superseded barrier is removed once the next edge barrier is
    written: whenever a barrier is written, the run directory holds at
    most one barrier of each kind, and the call ends holding only its
    last edge barrier, also when the run finishes on the driver. The
    graph is the N-vertex workload beside a 300-vertex path with rising
    weights, 599 edges (3 rounds at t=0.3: round 1 on Spark, whose
    99-edge barrier hands rounds 2-3 to the driver). The cap, 598, is one
    below the edge count, so round 1 labels its forest on Spark, and the
    path's affinity tree of depth 298 (load 598, not split) makes pointer
    jumping write an ``affinity-ptr`` barrier too."""
    held, tags = [], []

    def listing():
        return sorted(name.rsplit("-", 1)[0] for name in os.listdir(io._open[-1]))

    real_mat = io.materialize

    def recording(df, tag="step"):
        tags.append(tag)
        if os.path.isdir(io._open[-1]):
            held.append(listing())
        return real_mat(df, tag)

    for name, mod in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, val in list(vars(mod).items()):
                if val is real_mat:
                    monkeypatch.setattr(mod, attr, recording)
    real_impl = terahac_module._terahac_impl

    def impl(*args):
        res = real_impl(*args)
        held.append(listing())
        return res

    monkeypatch.setattr(terahac_module, "_terahac_impl", impl)
    path = [(i, i + 1, (i + 1) / 300) for i in range(299)]
    rest = [(u + 300, v + 300, w) for u, v, w in random_weighted_graph(n=N, avg_deg=5, seed=5)]
    res = terahac(
        spark, edges_to_spark(spark, path + rest), 300 + N, eps=0.1, t=0.3,
        max_subgraph_edges=598,
    )
    assert res.rounds > 1 and "affinity-ptr" in tags
    assert all(len(kinds) == len(set(kinds)) for kinds in held), held
    assert held[-1] == ["edges"]


def test_terahac_spark_equals_local_flatten(spark, workload):
    """Same algorithm, same deterministic partitioning rule: the flat
    clusterings at the run threshold agree exactly (ARI 1)."""
    edges, df = workload
    t = 0.2
    sp = terahac(spark, df, N, eps=0.1, t=t)
    lo = terahac_local(edges, N, eps=0.1, t=t)
    assert ari(sp.dendrogram.flatten(t), lo.dendrogram.flatten(t)) == pytest.approx(1.0)


def test_terahac_spark_size_constrained(spark, workload):
    """Tiny subgraph caps exercise the splitting without breaking the
    approximation guarantee (Lemma 7); every round still merges."""
    edges, df = workload
    res = terahac(spark, df, N, eps=0.1, t=0.0, max_subgraph_edges=40)
    assert empirical_approx_ratio(res.dendrogram, edges) <= 1.1 * (1 + 1e-9)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 1.0), (1, 2, 0.0)],
        [(0, 1, 1.0), (1, 3, 0.5)],
        [(0, 1, 1.0), (1, 9, 0.5), (2, 3, -0.25)],
        [(0, 1, 1.0), (1, 2, float("nan"))],
    ],
)
def test_terahac_spark_rejects_bad_edges(spark, edges):
    """Every Spark engine rejects the edges that the local engines
    reject, with an error that names an offending edge; the local
    engines raise ``localgraph.check_edge``'s ``ValueError``."""
    df = edges_to_spark(spark, edges)
    # The NaN weight reaches Spark as null (pandas to Arrow).
    named = r"edge \((1, [239], 0\.[05]|1, 2, (NaN|null)|2, 3, -0\.25)\)"
    local = r"^edge \((1, [239], (0\.[05]|nan))\): (vertex id outside|weight is not)"
    with pytest.raises(SparkRuntimeException, match=named):
        terahac(spark, df, 3)
    with pytest.raises(ValueError, match=local):
        scc_local(edges, 3, rounds=2, t=0.1)
    with pytest.raises(SparkRuntimeException, match=named):
        scc_spark(spark, df, 3, rounds=2, t=0.1)
    with pytest.raises(ValueError, match=local):
        graph_dbscan_local(edges, 3, eps=0.5, min_pts=1)
    with pytest.raises(SparkRuntimeException, match=named):
        graph_dbscan_spark(spark, df, 3, eps=0.5, min_pts=1)


def test_spark_engines_leave_no_checkpoint_dirs(spark):
    """Each engine call removes its parquet barriers, on return and on
    raise."""
    root = io._ckpt_root(spark)

    def listing():
        return set(os.listdir(root)) if os.path.isdir(root) else set()

    before = listing()
    df = edges_to_spark(spark, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25)])
    terahac(spark, df, 4, eps=0.1, t=0.0)
    scc_spark(spark, df, 4, rounds=2, t=0.1)
    # A 32-vertex path takes connected components past its first barrier.
    path = edges_to_spark(spark, [(i, i + 1, 1.0) for i in range(31)])
    graph_dbscan_spark(spark, path, 32, eps=0.5, min_pts=1)
    with pytest.raises(SparkRuntimeException):
        terahac(spark, edges_to_spark(spark, [(0, 1, 1.0), (1, 2, 0.0)]), 3)
    assert listing() == before
    # The root goes too once the last run directory leaves it empty.
    assert os.path.isdir(root) == bool(before)


def test_scc_spark_equals_local(spark, workload):
    """The same levels, exactly, and the same per-round counts, on the
    N-vertex workload and on a path beside vertices 4..7 that have no
    edge (each of them is a cluster of every level)."""
    path = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25)]
    for edges, n, rounds, t in ((workload[0], N, 5, 0.05), (path, 8, 3, 0.1)):
        rl = scc_local(edges, n, rounds=rounds, t=t)
        rs = scc_spark(spark, edges_to_spark(spark, edges), n, rounds=rounds, t=t)
        assert len(rs.levels) == rounds
        for a, b in zip(rl.levels, rs.levels):
            assert np.array_equal(a, b)
        assert rs.n_clusters == rl.n_clusters
        assert rs.nodes_per_round == rl.nodes_per_round
        assert rs.edges_per_round == rl.edges_per_round


def test_scc_spark_round_barriers(spark, workload, monkeypatch):
    """Guards SCC's per-round Spark state: the weighted edge barrier is
    the only barrier, one a round (round 0's, then one contracted table
    before each later round), and no connected-components pass; the
    levels are built on the driver."""
    _, df = workload
    tags = _barrier_tags(monkeypatch)
    scc_spark(spark, df, N, rounds=5, t=0.05)
    assert tags == ["scc-edges"] * 5


def test_scc_spark_stats(spark, workload):
    _, df = workload
    rs = scc_spark(spark, df, N, rounds=3, t=0.05)
    assert len(rs.nodes_per_round) == 3
    assert rs.nodes_per_round == sorted(rs.nodes_per_round, reverse=True)


def test_scc_spark_job_budget(spark, workload, monkeypatch):
    """Guards the per-round Spark cost of SCC, which runs on TeraHAC's
    round shape: one weighted edge barrier a round, its counts observed
    on the write, and one Arrow collect of the round's affinity labels,
    from which the driver builds the level and the next round's mapping.
    The budget is the count of one ``scc_spark()`` call (N=120, 5
    rounds) measured on Spark 4.1 in local mode, 82 jobs warm and as a
    session's first call, plus one job of slack (101 with an assignment
    barrier and a collect of every level, 111 when each barrier's
    read-back inferred its schema, 198 with a vertex barrier and count
    actions). No ``DataFrame.count`` may run."""
    edges, _ = workload
    df = edges_to_spark(spark, edges)  # uncached: the count cannot depend on test order
    res, jobs, counts = _jobs_of(
        spark, monkeypatch, lambda: scc_spark(spark, df, N, rounds=5, t=0.05)
    )
    assert len(res.levels) == 5
    assert counts == []
    assert jobs <= 83, jobs


# Two 4-cliques {0, 1, 2, 9} and {3, 4, 5, 6} at 0.9, and border vertex 8
# tied at 0.8 between core 9 and core 3: it joins the core of max (w, id).
_TIED_BORDER = (
    [(a, b, 0.9) for q in ((0, 1, 2, 9), (3, 4, 5, 6)) for a, b in itertools.combinations(q, 2)]
    + [(8, 9, 0.8), (8, 3, 0.8)]
)


@pytest.mark.parametrize(
    "graph,eps,min_pts",
    [("workload", 0.5, 3), ("workload", 0.8, 2), ("tied-border", 0.5, 3)],
    ids=["0.5-3", "0.8-2", "tied-border"],
)
def test_graph_dbscan_spark_equals_local(spark, workload, graph, eps, min_pts):
    edges, n = (workload[0], N) if graph == "workload" else (_TIED_BORDER, 10)
    la = graph_dbscan_local(edges, n, eps=eps, min_pts=min_pts)
    lb = graph_dbscan_spark(spark, edges_to_spark(spark, edges), n, eps=eps, min_pts=min_pts)
    assert lb.shape == (n,)
    assert ari(la, lb) == pytest.approx(1.0)
    if graph == "tied-border":
        assert la[8] == la[9] != la[3]


def test_terahac_spark_webquery_quality(spark):
    """End-to-end §6.3 shape at toy scale: TeraHAC recovers the planted
    clusters from the web-query-lite graph."""
    n = 800
    edges, truth, pairs = web_query_lite(n=n, seed=9, n_label_pairs=400)
    df = edges_to_spark(spark, edges)
    res = terahac(spark, df, n, eps=0.1, t=0.05)
    best = max(ari(truth, res.dendrogram.flatten(ft)) for ft in (0.5, 0.4, 0.3))
    assert best > 0.8
