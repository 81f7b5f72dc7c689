"""End-to-end tests of the shared-memory TeraHAC engine against the
paper's theorems: exactness at eps=0 (OptimizedRAC == HAC), Lemma 4
(approximation ratio), Lemma 8 (flatten min-merge), Lemma 9 (pruning
invariance) and round-count behaviour."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.hac_exact import exact_hac_graph
from repro.baselines.rac import rac
from repro.core.dendrogram import empirical_approx_ratio
from repro.core.localgraph import DSU
from repro.core import terahac_local as engine
from repro.core.terahac_local import terahac_local
from repro.synth_data import degree_weights_local, random_weighted_graph, rmat_edges
from tests.util import validate_good_merges


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,avg_deg", [(60, 4), (150, 6)])
def test_eps0_t0_equals_exact_hac(seed, n, avg_deg):
    """TeraHAC(eps=0, t=0) computes the exact HAC dendrogram (§6:
    "setting eps=0 yields the exact HAC algorithm"). Weights are random
    uniforms, so ties have measure zero and the dendrogram is unique."""
    edges = random_weighted_graph(n=n, avg_deg=avg_deg, seed=seed)
    ex = exact_hac_graph(edges, n)
    res = terahac_local(edges, n, eps=0.0, t=0.0)
    assert res.dendrogram.internal_cluster_sets() == ex.internal_cluster_sets()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 1.0])
def test_approximation_ratio_bounded(seed, eps):
    """Lemma 4: the dendrogram is (1+eps)-approximate."""
    n = 100
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    res = terahac_local(edges, n, eps=eps, t=0.0)
    assert empirical_approx_ratio(res.dendrogram, edges) <= (1 + eps) * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_every_merge_is_good_in_emission_order(seed, eps):
    """Definition 2 holds for every merge at its position (Lemmas 5-7),
    including the M(.) bookkeeping and the id encoding."""
    n = 80
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    res = terahac_local(edges, n, eps=eps, t=0.0)
    validate_good_merges(edges, res.dendrogram, eps)


@pytest.mark.parametrize("seed", range(3))
def test_lemma9_pruning_invariance(seed):
    """Running with any pruning threshold t' in [0, t] then flattening at
    t gives the identical flat clustering (Lemma 9)."""
    n = 120
    t = 0.05
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    ref = None
    for t_prime in (0.0, t / 2, t):
        res = terahac_local(edges, n, eps=0.1, t=t_prime)
        labels = res.dendrogram.flatten(t)
        canon = tuple(
            tuple(sorted(np.flatnonzero(labels == c).tolist()))
            for c in sorted(set(labels.tolist()), key=lambda c: min(np.flatnonzero(labels == c)))
        )
        if ref is None:
            ref = canon
        else:
            assert canon == ref


@pytest.mark.parametrize("seed", range(3))
def test_lemma8_flatten_min_merge(seed):
    """Every flattened cluster was built from merges of similarity
    >= t/(1+eps) (Lemma 8)."""
    n, eps, t = 100, 0.1, 0.2
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    res = terahac_local(edges, n, eps=eps, t=t)
    for mn in res.dendrogram.flat_cluster_min_merge(t):
        assert mn >= t / (1 + eps) * (1 - 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_fewer_rounds_than_rac(seed):
    """The headline claim: TeraHAC needs (far) fewer rounds than RAC."""
    n = 150
    edges = random_weighted_graph(n=n, avg_deg=6, seed=seed)
    res = terahac_local(edges, n, eps=0.1, t=0.01)
    _, rac_stats = rac(edges, n, t=0.01)
    assert res.rounds < len(rac_stats)


def test_stats_consistency():
    n = 100
    edges = random_weighted_graph(n=n, avg_deg=5, seed=1)
    res = terahac_local(edges, n, eps=0.1, t=0.0, collect_stats=True)
    assert sum(st.n_merges for st in res.stats) == len(res.dendrogram.merges)
    assert len(res.stats) == res.rounds
    # graph shrinks monotonically (Fig. 11 behaviour)
    verts = [st.n_vertices for st in res.stats]
    assert verts == sorted(verts, reverse=True)


def test_good_edges_more_with_eps(synthetic_seed=2):
    """Fig. 15: eps=0.1 makes many more edges mergeable than eps=0."""
    n = 200
    edges = random_weighted_graph(n=n, avg_deg=6, seed=synthetic_seed)
    g0 = terahac_local(edges, n, eps=0.0, t=0.0, collect_stats=True)
    g1 = terahac_local(edges, n, eps=0.1, t=0.0, collect_stats=True)
    assert g1.stats[0].n_good > g0.stats[0].n_good


@pytest.mark.parametrize("cap", [40, 200])
def test_size_constrained_partitions_still_correct(cap):
    """Lemma 7: any partition is correct — force tiny subgraph caps and
    check the approximation ratio still holds."""
    n, eps = 100, 0.1
    edges = random_weighted_graph(n=n, avg_deg=5, seed=7)
    res = terahac_local(edges, n, eps=eps, t=0.0, max_subgraph_edges=cap)
    assert empirical_approx_ratio(res.dendrogram, edges) <= (1 + eps) * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [10, 25, 60])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_split_keeps_mutual_best_pairs_and_never_stalls(monkeypatch, seed, cap, eps):
    """The split never separates a mutual-best pair, so every round
    merges with no forced merge, and eps=0 still gives exact HAC. The
    best-edge map and the degrees the partition receives are those of the
    graph its groups are cut from (brute force), also after pruning
    (t > 0) has dropped vertices."""
    n = 60
    edges = random_weighted_graph(n=n, avg_deg=4, seed=seed)
    partition, groups, build = engine.affinity_partition, engine._groups, engine.build
    sizes = []  # the engine's cluster-size dict, updated in place each round
    received = []  # the (best, deg) of each partition call
    splits = []

    def capturing_build(edges, n_base):
        adj, size = build(edges, n_base)
        sizes.append(size)
        return adj, size

    def recording(best, deg, max_subgraph_edges):
        received.append((best, deg))
        out = partition(best, deg, max_subgraph_edges)
        for u, b in best.items():
            if best[b] == u:
                assert out[u] == out[b], f"mutual-best pair ({u}, {b}) split apart"
        splits.append(any(c < 0 for c in out.values()))
        return out

    def checked(adj, clusters):
        size = sizes[-1]
        best = {
            u: max(nb, key=lambda b: (nb[b] / (size[u] * size[b]), b))
            for u, nb in adj.items()
            if nb
        }
        assert received[-1] == (best, {u: len(nb) for u, nb in adj.items()})
        return groups(adj, clusters)

    monkeypatch.setattr(engine, "build", capturing_build)
    monkeypatch.setattr(engine, "affinity_partition", recording)
    monkeypatch.setattr(engine, "_groups", checked)
    res = terahac_local(edges, n, eps=eps, t=0.0, max_subgraph_edges=cap)
    assert any(splits), "the cap never split a cluster"
    assert len(res.stats) == res.rounds and all(st.n_merges > 0 for st in res.stats)
    assert res.forced_merges == 0
    if eps == 0.0:
        ex = exact_hac_graph(edges, n)
        assert res.dendrogram.internal_cluster_sets() == ex.internal_cluster_sets()
    terahac_local(edges, n, eps=eps, t=0.1, max_subgraph_edges=cap)


@pytest.mark.parametrize("seed", range(4))
def test_every_kernel_call_holds_one_marked_tree(monkeypatch, seed):
    """A split part's id is its min member's, so parts of two marked
    trees never share a kernel call and the cap holds per tree. At cap 10
    every seed has parts ``i``, ``i'`` of two trees ``c``, ``c'`` with
    ``c·nparts + i == c'·nparts' + i'``, which a label built from the tree
    id and part index would merge."""
    n = 120
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    partition, kernel = engine.affinity_partition, engine.subgraph_hac
    tree: dict[int, int] = {}
    trees_per_call, splits = [], []

    def marking(best, deg, max_subgraph_edges):
        dsu = DSU()
        for u, b in best.items():
            dsu.union(u, b)
        tree.clear()
        tree.update({u: dsu.find(u) for u in deg})
        out = partition(best, deg, max_subgraph_edges)
        splits.append(any(c < 0 for c in out.values()))
        return out

    def checked(adj, size, m, eps, n_base):
        trees_per_call.append({tree[x] for x in adj})
        return kernel(adj, size, m, eps, n_base)

    monkeypatch.setattr(engine, "affinity_partition", marking)
    monkeypatch.setattr(engine, "subgraph_hac", checked)
    terahac_local(edges, n, eps=0.1, t=0.0, max_subgraph_edges=10)
    assert any(splits)
    assert all(len(trees) == 1 for trees in trees_per_call)


def test_max_rounds_error_reports_last_round():
    n = 80
    edges = random_weighted_graph(n=n, avg_deg=5, seed=3)
    with pytest.raises(RuntimeError, match=r"within 1 rounds; last round: RoundStats\(round=1, "):
        terahac_local(edges, n, eps=0.1, t=0.0, max_rounds=1)


def test_full_dendrogram_at_t0():
    """t=0 merges every connected component down to a single root."""
    n = 80
    edges = random_weighted_graph(n=n, avg_deg=5, seed=3)
    from tests.util import brute_components

    comp = brute_components([(u, v) for u, v, _ in edges], list(range(n)))
    n_components = len(set(comp.values()))
    res = terahac_local(edges, n, eps=0.1, t=0.0)
    assert len(res.dendrogram.merges) == n - n_components


def test_threshold_stops_early():
    n = 80
    edges = random_weighted_graph(n=n, avg_deg=5, seed=4)
    full = terahac_local(edges, n, eps=0.1, t=0.0)
    part = terahac_local(edges, n, eps=0.1, t=0.3)
    assert len(part.dendrogram.merges) < len(full.dendrogram.merges)
    # no merge below t/(1+eps) similarity is required by Lemma 8 only for
    # flattened clusters; but the loop must have stopped: every remaining
    # heavy edge was exhausted.
    assert part.rounds <= full.rounds


def test_threshold_is_inclusive_after_contraction():
    """An edge of weight exactly ``t`` is heavy, and a vertex whose
    ``w_max`` is exactly ``t/(1+eps)`` is not pruned. Round 1 merges the
    mutual-best pairs {0, 1} and {2, 3}, which lie in two affinity
    clusters; contraction leaves one edge of weight 4 * 0.5 / (2 * 2) =
    0.5 = t between them, so both survive the prune and merge in round 2."""
    edges = [(0, 1, 1.0), (2, 3, 0.6), (0, 2, 0.5), (1, 2, 0.5), (0, 3, 0.5), (1, 3, 0.5)]
    res = terahac_local(edges, 4, eps=0.0, t=0.5, collect_stats=True)
    assert res.rounds == 2
    assert sorted(mg.similarity for mg in res.dendrogram.merges) == [0.5, 0.6, 1.0]
    counts = [(st.n_vertices, st.n_edges, st.n_heavy) for st in res.stats]
    assert counts == [(4, 6, 6), (2, 1, 1)]


def test_deterministic():
    n = 60
    edges = random_weighted_graph(n=n, avg_deg=5, seed=9)
    a = terahac_local(edges, n, eps=0.1, t=0.01)
    b = terahac_local(edges, n, eps=0.1, t=0.01)
    assert a.dendrogram.merges == b.dendrogram.merges


@pytest.mark.parametrize(
    "cap,digest",
    [
        (1 << 30, "c3af1ca6e3b25cd15adabd0ea7fe987da557c142a17220f7800114ae6a92ca2d"),
        (500, "5d8af5c1673f22871d14afa724a3549d100c7e61b0cb8a6ff51495b5c0c2f727"),
    ],
)
def test_rmat_merges_bit_identical_to_golden(cap, digest):
    """Kernel or engine speed-ups must not move a single merge: ids,
    order, similarities to the last bit and round counts on four rMAT-8
    graphs are pinned by a digest taken with SubgraphHAC's full-rescan
    kernel, before it cached w_max."""
    h = hashlib.sha256()
    for seed in range(4):
        edges = degree_weights_local(rmat_edges(scale=8, seed=seed))
        res = terahac_local(edges, 1 << 8, eps=0.1, t=0.01, max_subgraph_edges=cap)
        for mg in res.dendrogram.merges:
            h.update(f"{mg.parent},{mg.left},{mg.right},{mg.similarity.hex()};".encode())
        h.update(f"rounds={res.rounds};".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "t,cap,digest",
    [
        (0.01, 1 << 30, "2bd0b3b984aa10691c137ab37980edbc4f125106685ea3713025e21a0e5d1f9a"),
        (0.01, 500, "38ec281d91fc15bf4ea3b30dd1095122bc14f4f7ad607c8cd17e8b8ec9669900"),
        (0.05, 1 << 30, "27d3b2c03ab2cc948bd869ff5c58bf294c7deb7c36af1bfbcb79392278515c60"),
        (0.05, 500, "1f031971f203e4c793371f0401c42f59cf66550d20f8de58d40ce5f168664fbd"),
    ],
)
def test_rmat_round_stats_equal_golden(t, cap, digest):
    """Every ``RoundStats`` field (vertices, edges, heavy and good edges,
    merges) and the round count on the four rMAT-8 graphs are pinned by a
    digest taken when each count had a walk of its own over the graph.
    At t=0.05 rounds drop about 80 vertices over the four graphs besides
    those merged (3 to 7 at t=0.01), so the counts after pruning are
    covered too."""
    h = hashlib.sha256()
    for seed in range(4):
        edges = degree_weights_local(rmat_edges(scale=8, seed=seed))
        res = terahac_local(
            edges, 1 << 8, eps=0.1, t=t, max_subgraph_edges=cap, collect_stats=True
        )
        for st in res.stats:
            h.update(
                f"{st.round},{st.n_vertices},{st.n_edges},{st.n_heavy},"
                f"{st.n_merges},{st.n_good};".encode()
            )
        h.update(f"rounds={res.rounds};".encode())
    assert h.hexdigest() == digest
