"""SubgraphHAC kernel tests: every merge good, result maximal, active /
inactive contract honoured (Algorithms 2/4, Lemmas 2/5).

Fixtures are written as edge rows ``(u, v, raw, size_u, size_v, m_u,
m_v, active_u, active_v)`` and handed to the kernel through
:func:`_graph`."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import terahac_local as local
from repro.core.goodness import INF, encode_leaf, goodness
from repro.core.localgraph import affinity_partition, build, scan
from repro.core.subgraph_hac import subgraph_hac
from repro.core.terahac import _graph_of
from repro.synth_data import random_weighted_graph


def _graph(rows):
    """The kernel input ``(adj, size, m)`` of edge rows: a row of each
    active endpoint, and ``size``/``m`` of every endpoint."""
    return _graph_of(*zip(*rows))


def _run(rows, eps, n_base):
    return subgraph_hac(*_graph(rows), eps, n_base)


def _rows_all_active(edges, n):
    return [
        (encode_leaf(u, n), encode_leaf(v, n), w, 1, 1, INF, INF, True, True)
        for u, v, w in edges
    ]


def _replay_state(rows):
    """Current graph state (adj, size, m, active) after applying no merges."""
    size, m, adj, active = {}, {}, {}, set()
    for u, v, raw, su, sv, mu, mv, au, av in rows:
        size[u], size[v], m[u], m[v] = su, sv, mu, mv
        adj.setdefault(u, {})[v] = adj.setdefault(u, {}).get(v, 0) + raw
        adj.setdefault(v, {})[u] = adj.setdefault(v, {}).get(u, 0) + raw
        if au:
            active.add(u)
        if av:
            active.add(v)
    return adj, size, m, active


def _apply(adj, size, m, mg):
    u, v = mg.left, mg.right
    w_uv = adj[u][v] / (size[u] * size[v])
    nbrs = {}
    for x, r in adj.pop(u).items():
        if x != v:
            nbrs[x] = nbrs.get(x, 0.0) + r
    for x, r in adj.pop(v).items():
        if x != u:
            nbrs[x] = nbrs.get(x, 0.0) + r
    for x, r in nbrs.items():
        adj[x].pop(u, None)
        adj[x].pop(v, None)
        adj[x][mg.parent] = r
    adj[mg.parent] = nbrs
    size[mg.parent] = size[u] + size[v]
    m[mg.parent] = min(m[u], m[v], w_uv)
    return w_uv


def _wmax(adj, size, x):
    return max((r / (size[x] * size[y]) for y, r in adj[x].items()), default=0.0)


def _check_good_and_maximal(rows, eps, n_base):
    """Replay the kernel's merges: each is (1+eps)-good at its turn, and
    no good active-active edge is left at the end."""
    res = _run(rows, eps, n_base)
    adj, size, m, active = _replay_state(rows)
    merged_away = set()
    for mg in res.merges:
        assert mg.left in active and mg.right in active
        assert mg.left not in merged_away and mg.right not in merged_away
        g = goodness(
            _wmax(adj, size, mg.left),
            _wmax(adj, size, mg.right),
            m[mg.left],
            m[mg.right],
            adj[mg.left][mg.right] / (size[mg.left] * size[mg.right]),
        )
        assert g <= (1 + eps) * (1 + 1e-9), f"merge not good: {g}"
        w = _apply(adj, size, m, mg)
        assert abs(w - mg.similarity) < 1e-9
        merged_away |= {mg.left, mg.right}
        active.add(mg.parent)
    active -= merged_away
    # maximality: no remaining active-active edge is (1+eps)-good
    for x in active:
        for y, r in adj[x].items():
            if y in active and x < y:
                g = goodness(
                    _wmax(adj, size, x),
                    _wmax(adj, size, y),
                    m[x],
                    m[y],
                    r / (size[x] * size[y]),
                )
                assert g > (1 + eps) * (1 - 1e-9), "good merge left behind"
    return res


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_all_merges_are_good_and_result_is_maximal(seed, eps):
    n = 60
    edges = random_weighted_graph(n=n, avg_deg=4, seed=seed)
    _check_good_and_maximal(_rows_all_active(edges, n), eps, n)


_TIED_N = 60
_TIED_BASE = 4 * _TIED_N  # room for every size sum in the id encoding


def _tied_rows(seed):
    """Rows with weights from {0.5, 1.0}, so w_max ties everywhere, and
    sizes, prior M and inactive vertices varied as in later rounds."""
    n = _TIED_N
    rng = np.random.default_rng(seed)
    sz = rng.integers(1, 4, n)
    mm = rng.choice([INF, 1.0, 0.8, 0.5], n)
    act = rng.random(n) < 0.8
    ids = [encode_leaf(v, _TIED_BASE) + int(sz[v]) - 1 for v in range(n)]
    rows = []
    for u, v, _ in random_weighted_graph(n=n, avg_deg=5, seed=seed):
        if act[u] or act[v]:
            w = float(rng.choice([0.5, 1.0]))
            rows.append((
                ids[u], ids[v], w * sz[u] * sz[v], int(sz[u]), int(sz[v]),
                float(mm[u]), float(mm[v]), bool(act[u]), bool(act[v]),
            ))
    return rows


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_good_and_maximal_with_ties(seed, eps):
    """Ties in w_max are where a cached argmax can go stale."""
    res = _check_good_and_maximal(_tied_rows(seed), eps, _TIED_BASE)
    assert res.merges, "no merge exercised the cache"


@pytest.mark.parametrize("seed", range(4))
def test_inactive_vertices_never_merge(seed):
    n = 40
    edges = random_weighted_graph(n=n, avg_deg=4, seed=seed)
    rng = np.random.default_rng(seed)
    act = set(int(x) for x in rng.choice(n, n // 2, replace=False))
    rows = []
    for u, v, w in edges:
        au, av = u in act, v in act
        if not (au or av):
            continue
        rows.append(
            (encode_leaf(u, n), encode_leaf(v, n), w, 1, 1, INF, INF, au, av)
        )
    res = _run(rows, 0.2, n)
    inact = {encode_leaf(v, n) for v in range(n) if v not in act}
    for mg in res.merges:
        assert mg.left not in inact and mg.right not in inact
    # mapping covers exactly the active vertices present in the subgraph
    present_active = {r[0] for r in rows if r[7]} | {r[1] for r in rows if r[8]}
    assert set(res.mapping) == present_active


def test_mapping_identity_for_unmerged():
    """An active vertex whose only edge goes to an inactive neighbour can
    never merge; it must map to itself with unchanged metadata."""
    n = 4
    rows = [
        (encode_leaf(0, n), encode_leaf(1, n), 1.0, 1, 1, INF, INF, True, True),
        (encode_leaf(2, n), encode_leaf(3, n), 0.9, 1, 1, 0.7, INF, True, False),
    ]
    res = _run(rows, 0.0, n)
    assert len(res.merges) == 1  # only 0-1 can merge
    assert res.mapping[encode_leaf(2, n)] == encode_leaf(2, n)


def test_eps0_merges_only_reciprocal_pairs_initially():
    """Observation 1: with eps=0, the first merge must satisfy
    w(uv) = wmax(u) = wmax(v)."""
    n = 3
    rows = [
        (encode_leaf(0, n), encode_leaf(1, n), 1.0, 1, 1, INF, INF, True, True),
        (encode_leaf(1, n), encode_leaf(2, n), 0.8, 1, 1, INF, INF, True, True),
    ]
    res = _run(rows, 0.0, n)
    first = res.merges[0]
    assert {first.left, first.right} == {encode_leaf(0, n), encode_leaf(1, n)}


@pytest.mark.parametrize("seed", range(4))
def test_adds_only_new_ids_to_size_and_m(seed):
    """The kernel may add ``size`` and ``m`` entries for the ids it
    creates and must change no existing one, so the local engine can pass
    its whole graph's dicts: after a call the old entries are as they
    were and the new keys are exactly the merges' parents, with their
    sizes and ``M`` (mapping targets included)."""
    rows = _tied_rows(seed)
    adj, size, m = _graph(rows)
    size0, m0 = dict(size), dict(m)
    res = subgraph_hac(adj, size, m, 0.1, _TIED_BASE)
    parents = {mg.parent for mg in res.merges}
    assert parents and not parents & set(size0)
    assert {k: size[k] for k in size0} == size0 and {k: m[k] for k in m0} == m0
    assert set(size) == set(size0) | parents and set(m) == set(m0) | parents
    for mg in res.merges:
        assert size[mg.parent] == size[mg.left] + size[mg.right]
        assert m[mg.parent] == min(m[mg.left], m[mg.right], mg.similarity)
    assert set(res.mapping.values()) <= set(size0) | parents


@pytest.mark.parametrize("seed", range(3))
def test_lemma2_invariant_after_run(seed):
    """After a run, every active cluster satisfies wmax(v)/M(v) <= 1+eps."""
    eps = 0.15
    n = 50
    edges = random_weighted_graph(n=n, avg_deg=5, seed=seed)
    rows = _rows_all_active(edges, n)
    res = _run(rows, eps, n)
    adj, size, m, active = _replay_state(rows)
    for mg in res.merges:
        _apply(adj, size, m, mg)
        active -= {mg.left, mg.right}
        active.add(mg.parent)
    for x in active:
        if m[x] < INF:
            assert _wmax(adj, size, x) <= (1 + eps) * m[x] * (1 + 1e-9)


def test_carries_prior_m_values():
    """A vertex arriving with small M blocks otherwise-plausible merges
    (the Fig. 4 mechanism across rounds)."""
    n = 10
    eps = 0.1
    # vertex 0 carries M = 0.5 from earlier rounds; edge weight 0.8 with
    # wmax 0.8 would be good on weights alone, but 0.8/0.5 > 1.1.
    rows = [(encode_leaf(0, n), encode_leaf(1, n), 0.8, 1, 1, 0.5, INF, True, True)]
    res = _run(rows, eps, n)
    assert res.merges == []
    # with a benign M it merges
    rows2 = [(encode_leaf(0, n), encode_leaf(1, n), 0.8, 1, 1, INF, INF, True, True)]
    assert len(_run(rows2, eps, n).merges) == 1


def test_both_engines_hand_a_capped_group_the_same_input():
    """The kernel boundary: each group of a capped partition, built by the
    Spark UDF's column-list builder from its shipped edge rows (in an
    arbitrary order, as a shuffle delivers them; an end is active when
    its cluster is the group's) and by the local
    engine's slice of its graph, gives equal merges and an equal
    mapping."""
    n = 120
    adj, size = build(random_weighted_graph(n=n, avg_deg=5, seed=5), n)
    m = dict.fromkeys(adj, INF)
    best = scan(adj, size, 0.0)[0]
    clusters = affinity_partition(best, {a: len(nb) for a, nb in adj.items()}, 40)
    groups = local._groups(adj, clusters)
    assert any(c < 0 for c in groups), "the cap split no cluster"
    rng = np.random.default_rng(0)
    for c, group in groups.items():
        shipped = [
            (a, b, raw, size[a], size[b], m[a], m[b], clusters[a] == c, clusters[b] == c)
            for a, nb in adj.items()
            for b, raw in nb.items()
            if a < b and c in (clusters[a], clusters[b])
        ]
        shipped = [shipped[i] for i in rng.permutation(len(shipped))]
        spark_in = _graph_of(*zip(*shipped))
        assert spark_in[0] == group
        a = subgraph_hac(*spark_in, 0.1, n)
        b = subgraph_hac(group, dict(size), dict(m), 0.1, n)
        assert a.merges == b.merges and a.mapping == b.mapping
