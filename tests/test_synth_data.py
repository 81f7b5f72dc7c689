"""Synthetic graph generators (rMAT, web-query-lite, random graphs)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.synth_data import (
    degree_weights_local,
    random_weighted_graph,
    rmat_edges,
    web_query_lite,
)


@pytest.mark.parametrize("scale", [6, 8, 10])
def test_rmat_basic_properties(scale):
    pairs = rmat_edges(scale=scale)
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert (pairs[:, 0] < pairs[:, 1]).all()        # canonical, no loops
    assert pairs.max() < (1 << scale)               # 2^scale vertices
    assert len(np.unique(pairs, axis=0)) == len(pairs)  # dedup
    # target 50 * 2^scale before dedup; after dedup still substantial
    assert len(pairs) > (10 << scale)


def test_rmat_deterministic():
    a, b = rmat_edges(scale=7, seed=3), rmat_edges(scale=7, seed=3)
    assert np.array_equal(a, b)
    c = rmat_edges(scale=7, seed=4)
    assert not np.array_equal(a, c)


def test_rmat_is_skewed():
    """a=0.6 concentrates edges on low ids — power-law-ish degrees."""
    pairs = rmat_edges(scale=10)
    deg = np.bincount(pairs.ravel())
    assert deg.max() > 20 * np.median(deg[deg > 0])


def test_degree_weights_formula():
    pairs = np.array([[0, 1], [1, 2], [0, 2]])
    edges = degree_weights_local(pairs)
    deg = {0: 2, 1: 2, 2: 2}
    for u, v, w in edges:
        assert w == pytest.approx(1.0 / np.log(deg[u] + deg[v]))


def test_degree_weights_in_unit_range_on_rmat():
    pairs = rmat_edges(scale=8)
    ws = [w for _, _, w in degree_weights_local(pairs)]
    assert 0 < min(ws) and max(ws) <= 1.0 / np.log(2) + 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_random_weighted_graph(seed):
    edges = random_weighted_graph(n=100, avg_deg=6, seed=seed)
    ws = [w for _, _, w in edges]
    assert len(set(ws)) == len(ws)  # distinct weights
    assert all(0 < w <= 1 for w in ws)
    assert all(u < v and v < 100 for u, v, _ in edges)


def test_web_query_lite_structure():
    edges, truth, pairs = web_query_lite(n=2000, seed=5)
    assert truth.shape == (2000,)
    assert all(0 <= u < 2000 and 0 <= v < 2000 and u < v for u, v, _ in edges)
    assert all(0 < w <= 1 for _, _, w in edges)
    pos = sum(1 for _, _, p in pairs if p)
    # the paper's label sample is ~13% positive
    assert 0.10 <= pos / len(pairs) <= 0.16
    for a, b, p in pairs:
        assert (truth[a] == truth[b]) == p


def test_web_query_lite_intra_heavier_than_inter():
    edges, truth, _ = web_query_lite(n=2000, seed=5)
    intra = [w for u, v, w in edges if truth[u] == truth[v]]
    inter = [w for u, v, w in edges if truth[u] != truth[v]]
    # intra ~ U(.55, 1); inter is a mix of topic U(.3, .75) and noise
    # U(.05, .4) — overlapping by design, but clearly separated in mean
    assert np.mean(intra) > 1.4 * np.mean(inter)
    assert max(inter) < 0.76  # topic edges cap below the intra ceiling


def test_web_query_lite_clusters_dense():
    """Intent clusters are dense subgraphs (pair probability 0.8)."""
    edges, truth, _ = web_query_lite(n=1000, seed=6)
    have = {(u, v) for u, v, w in edges if truth[u] == truth[v]}
    total_pairs = 0
    for c in set(truth.tolist()):
        members = np.flatnonzero(truth == c)
        total_pairs += len(members) * (len(members) - 1) // 2
    assert total_pairs > 0
    assert 0.7 <= len(have) / total_pairs <= 0.9
