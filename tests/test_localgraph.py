"""The in-process graph core (union-find, build, pair merge, contraction)
on hand-built graphs, and the input checks every local engine gets from
:func:`repro.core.localgraph.build`."""
from __future__ import annotations

import random

import pytest

from repro.baselines.hac_exact import exact_hac_graph
from repro.baselines.parhac import parhac
from repro.baselines.rac import rac
from repro.baselines.scc import scc_local
from repro.core.dendrogram import Dendrogram, empirical_approx_ratio
from repro.core.goodness import encode_leaf
from repro.core.localgraph import DSU, build, contract, merge_pair
from repro.core.terahac_local import terahac_local
from repro.synth_data import degree_weights_local, rmat_edges


def test_dsu_representative_is_min_id():
    dsu = DSU()
    dsu.union(5, 3)
    dsu.union(9, 5)
    dsu.union(8, 7)
    dsu.union(9, 8)
    assert {x: dsu.find(x) for x in (3, 5, 7, 8, 9)} == dict.fromkeys((3, 5, 7, 8, 9), 3)
    assert dsu.find(4) == 4


def test_build_encodes_endpoints_sums_parallel_drops_loops():
    n = 5
    adj, size = build([(0, 1, 0.5), (1, 0, 0.25), (2, 2, 1.0), (1, 3, 1.0)], n)
    e = [encode_leaf(v, n) for v in range(n)]
    assert adj == {e[0]: {e[1]: 0.75}, e[1]: {e[0]: 0.75, e[3]: 1.0}, e[3]: {e[1]: 1.0}}
    assert size == {e[0]: 1, e[1]: 1, e[3]: 1}


def test_merge_pair_sums_raw_and_skips_rowless_neighbours():
    # 2 has a row (an active SubgraphHAC vertex), 3 has none (inactive).
    adj = {
        0: {1: 1.0, 2: 0.25, 3: 0.5},
        1: {0: 1.0, 2: 0.5, 3: 0.125},
        2: {0: 0.25, 1: 0.5},
    }
    size = {0: 1, 1: 2, 2: 1, 3: 4}
    nbrs = merge_pair(adj, size, 0, 1, 9)
    assert nbrs == {2: 0.75, 3: 0.625}
    assert adj == {2: {9: 0.75}, 9: {2: 0.75, 3: 0.625}}
    assert size[9] == 3


def test_contract_drops_self_loops_and_keeps_orientations_equal():
    n = 4
    adj, _ = build([(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.125), (2, 3, 1.0)], n)
    e = [encode_leaf(v, n) for v in range(n)]
    out = contract(adj, {e[0]: e[0], e[1]: e[0]})
    assert out == {e[0]: {e[2]: 0.375}, e[2]: {e[0]: 0.375, e[3]: 1.0}, e[3]: {e[2]: 1.0}}
    assert all(out[b][a] == r for a, row in out.items() for b, r in row.items())
    # A cluster left without edges keeps its row.
    assert contract(adj, dict.fromkeys(e, e[0])) == {e[0]: {}}


@pytest.mark.parametrize("seed", range(8))
def test_contract_orientations_bit_identical_on_rmat(seed):
    """Both orientations of a contracted edge hold the very same float:
    the partitioner's best edges and SubgraphHAC's rows read different
    ones, and a last-bit difference could break a mutual-best pair."""
    n = 1 << 8
    adj, _ = build(degree_weights_local(rmat_edges(scale=8, seed=seed)), n)
    rng = random.Random(seed)
    for _ in range(3):
        ids = list(adj)
        rng.shuffle(ids)
        groups = [ids[i : i + 3] for i in range(0, len(ids), 3)]
        adj = contract(adj, {x: min(g) for g in groups for x in g})
        assert all(adj[b][a] == r for a, row in adj.items() for b, r in row.items())


BAD_EDGES = [
    ([(0, 1, 1.0), (1, 2, 0.0)], "not positive"),
    ([(0, 1, 1.0), (1, 2, -0.5)], "not positive"),
    ([(0, 1, 1.0), (1, 2, float("nan"))], "not positive"),
    ([(0, 1, 1.0), (1, 2, float("inf"))], "not positive"),
    ([(0, 1, 1.0), (1, 3, 0.5)], "outside"),
    ([(0, 1, 1.0), (-1, 2, 0.5)], "outside"),
]

LOCAL_ENGINES = {
    "terahac_local": lambda e, n: terahac_local(e, n, t=0.0),
    "exact_hac_graph": exact_hac_graph,
    "rac": rac,
    "parhac": parhac,
    "scc_local": lambda e, n: scc_local(e, n, rounds=3, t=0.01),
    "empirical_approx_ratio": lambda e, n: empirical_approx_ratio(Dendrogram(n), e),
}


@pytest.mark.parametrize("engine", sorted(LOCAL_ENGINES))
@pytest.mark.parametrize("edges,why", BAD_EDGES)
def test_local_engines_reject_bad_edges(engine, edges, why):
    with pytest.raises(ValueError, match=why):
        LOCAL_ENGINES[engine](edges, 3)
