"""Golden digests of the local baselines: SCC's levels and per-round
counts, RAC's and ParHAC's merges and round stats, and graph DBSCAN's
labels on the four rMAT-8 graphs of the TeraHAC goldens
(``tests/test_terahac_local.py``) plus one web-query-lite graph. They
were taken before the baselines shared :mod:`repro.core.localgraph`'s
best-edge scan and forest labelling, so a refactor of either must not
move a label, a merge or a similarity bit."""
from __future__ import annotations

import hashlib

import pytest

from repro.baselines.dbscan import graph_dbscan_local
from repro.baselines.parhac import parhac
from repro.baselines.rac import rac
from repro.baselines.scc import scc_local
from repro.synth_data import degree_weights_local, rmat_edges, web_query_lite


def _graphs():
    """``(edges, n, dbscan eps)``: the rMAT graphs, then web-query-lite."""
    for seed in range(4):
        yield degree_weights_local(rmat_edges(scale=8, seed=seed)), 1 << 8, 0.28
    edges, _, _ = web_query_lite(n=200, seed=3)
    yield edges, 200, 0.7


def _merges_and_stats(h, dendrogram, stats) -> None:
    for mg in dendrogram.merges:
        h.update(f"{mg.parent},{mg.left},{mg.right},{mg.similarity.hex()};".encode())
    for st in stats:
        h.update(f"{st.round},{st.n_vertices},{st.n_edges},{st.n_heavy},{st.n_merges};".encode())
    h.update(f"rounds={len(stats)};".encode())


@pytest.mark.parametrize(
    "rounds,digest",
    [
        (5, "456dfc5875d037eb8a5bfaad9e1ead4659d1e26269eda5c3d2cae972d68e5f74"),
        (25, "d09dcc581281802025ca7d0e2acd9674f899a84ac0e0190baf7e6a96d1a46851"),
    ],
)
def test_scc_local_equals_golden(rounds, digest):
    h = hashlib.sha256()
    for edges, n, _ in _graphs():
        res = scc_local(edges, n, rounds=rounds, t=0.01)
        for lab in res.levels:
            h.update(lab.tobytes())
        h.update(f"{res.n_clusters};{res.edges_per_round};{res.nodes_per_round};".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "t,digest",
    [
        (0.0, "e8a98604f9d67c62a945eb8f9eb5ce6f20bc38065a31ab572ac040bb214106cf"),
        (0.01, "9e36dbe5d3561485a4cde7d4a00be28fe98c535506c6aeca10d568a35930b30b"),
    ],
)
def test_rac_equals_golden(t, digest):
    h = hashlib.sha256()
    for edges, n, _ in _graphs():
        _merges_and_stats(h, *rac(edges, n, t=t))
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "t,digest",
    [
        (0.0, "8aa916307d468af42aa9f16b740387a6f96e22f635aecc711895c8d553eefa10"),
        (0.01, "617914786ae02375563a1b150898c156cf334c1a1bb47f3803e9245f12c7e392"),
    ],
)
def test_parhac_equals_golden(t, digest):
    h = hashlib.sha256()
    for edges, n, _ in _graphs():
        _merges_and_stats(h, *parhac(edges, n, eps=0.1, t=t))
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "min_pts,digest",
    [
        (2, "190e1048d77921e89c49f2138aa35b968654f1e6a967b6ddac1724c1229c339c"),
        (3, "372da3a0bede50fbebbecbbae72d6aa4bbe57c037344b1a8438288019a9f556d"),
    ],
)
def test_graph_dbscan_local_equals_golden(min_pts, digest):
    h = hashlib.sha256()
    for edges, n, eps in _graphs():
        h.update(graph_dbscan_local(edges, n, eps=eps, min_pts=min_pts).tobytes())
    assert h.hexdigest() == digest
