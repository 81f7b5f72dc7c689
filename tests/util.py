"""Brute-force reference implementations used as test oracles."""
from __future__ import annotations

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import decode_rep, decode_size, encode_leaf

INF = float("inf")


def brute_components(edges: list[tuple[int, int]], vertices: list[int]) -> dict[int, int]:
    """Union-find connected components; label = min vertex id."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {v: find(v) for v in vertices}


def brute_exact_hac(
    edges: list[tuple[int, int, float]], n: int, t: float = 0.0
) -> set[frozenset[int]]:
    """O(n^3) exact average-linkage graph HAC; returns the set of
    internal-cluster leaf-sets (order-free dendrogram identity)."""
    raw: dict[tuple[int, int], float] = {}
    clusters: dict[int, frozenset[int]] = {}
    for u, v, w in edges:
        if u == v:
            continue
        clusters.setdefault(u, frozenset([u]))
        clusters.setdefault(v, frozenset([v]))
        k = (min(u, v), max(u, v))
        raw[k] = raw.get(k, 0.0) + w
    out: set[frozenset[int]] = set()
    ids = sorted(clusters)
    nxt = max(ids) + 1 if ids else 0
    while True:
        best = None
        for (a, b), r in raw.items():
            w = r / (len(clusters[a]) * len(clusters[b]))
            if w >= t and (best is None or w > best[0]):
                best = (w, a, b)
        if best is None:
            break
        _, a, b = best
        merged = clusters[a] | clusters[b]
        out.add(merged)
        new_raw: dict[tuple[int, int], float] = {}
        for (x, y), r in raw.items():
            if {x, y} == {a, b}:
                continue
            nx = nxt if x in (a, b) else x
            ny = nxt if y in (a, b) else y
            k = (min(nx, ny), max(nx, ny))
            new_raw[k] = new_raw.get(k, 0.0) + r
        raw = new_raw
        del clusters[a], clusters[b]
        clusters[nxt] = merged
        nxt += 1
    return out


def validate_good_merges(
    edges: list[tuple[int, int, float]],
    dendro: Dendrogram,
    eps: float,
    order: list | None = None,
    tol: float = 1e-9,
) -> None:
    """Replay ``dendro.merges`` (emission order) on the original graph and
    assert every merge satisfies Definition 2 at its position, including
    the M(.) bookkeeping. Raises AssertionError otherwise."""
    n = dendro.n_base
    size: dict[int, int] = {}
    m: dict[int, float] = {}
    adj: dict[int, dict[int, float]] = {}
    for v in range(n):
        e = encode_leaf(v, n)
        size[e], m[e], adj[e] = 1, INF, {}
    for u, v, w in edges:
        eu, ev = encode_leaf(u, n), encode_leaf(v, n)
        adj[eu][ev] = adj[eu].get(ev, 0.0) + w
        adj[ev][eu] = adj[eu][ev]

    def wmax(x: int) -> float:
        return max(
            (r / (size[x] * size[y]) for y, r in adj[x].items()), default=0.0
        )

    for mg in (order or dendro.merges):
        u, v = mg.left, mg.right
        assert v in adj[u], f"merge {mg} has no edge"
        w_uv = adj[u][v] / (size[u] * size[v])
        g = max(wmax(u), wmax(v)) / min(m[u], m[v], w_uv)
        assert g <= (1 + eps) * (1 + tol), f"merge {mg} has goodness {g}"
        # contract
        nbrs: dict[int, float] = {}
        for x, r in adj.pop(u).items():
            if x != v:
                nbrs[x] = nbrs.get(x, 0.0) + r
        for x, r in adj.pop(v).items():
            if x != u:
                nbrs[x] = nbrs.get(x, 0.0) + r
        for x, r in nbrs.items():
            ax = adj[x]
            ax.pop(u, None)
            ax.pop(v, None)
            ax[mg.parent] = r
        adj[mg.parent] = nbrs
        size[mg.parent] = size[u] + size[v]
        m[mg.parent] = min(m[u], m[v], w_uv)
        # id encoding must agree with the replayed cluster
        assert decode_size(mg.parent, n) == size[mg.parent]
        # Lemma 2 invariant
        assert wmax(mg.parent) <= (1 + eps) * m[mg.parent] * (1 + tol)


def labels_from_partition(part: dict[int, int], n: int) -> np.ndarray:
    lab = np.zeros(n, dtype=np.int64)
    for v, c in part.items():
        lab[v] = c
    return lab


def labelling_paths(monkeypatch) -> list[str]:
    """How each affinity labelling from now on runs, in order: ``"jump"``
    for pointer jumping on Spark, ``"driver"`` for the driver's labelling
    of the collected best-edge table."""
    from repro.graphs import affinity

    paths: list[str] = []

    def recording(path, fn):
        def wrapper(*args):
            paths.append(path)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(affinity, "_roots", recording("jump", affinity._roots))
    monkeypatch.setattr(affinity, "_driver_clusters", recording("driver", affinity._driver_clusters))
    return paths
