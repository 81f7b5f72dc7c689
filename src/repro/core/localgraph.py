"""In-process weighted graph core shared by every local HAC loop.

A local graph is ``adj: {id: {neighbour: raw}}`` plus ``size: {id:
leaves}``, with both orientations of every edge stored and ``raw`` the
*sum* of point-pair similarities between two clusters (average-linkage
weight times ``size_u * size_v``, as in :mod:`repro.graphs.edges`).
Keeping the sum makes merging two clusters, or contracting many, an
exact add of raw weights — the one rule every engine relies on, kept
here: the TeraHAC engines, SubgraphHAC, exact HAC, RAC, ParHAC, SCC and
the greedy replay of :func:`repro.core.dendrogram.empirical_approx_ratio`.
"""
from __future__ import annotations

import math

from repro.core.goodness import encode_leaf

Adj = dict[int, dict[int, float]]


class DSU:
    """Union-find with min-id representatives (component label = min id)."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def build(
    edges: list[tuple[int, int, float]], n_base: int
) -> tuple[Adj, dict[int, int]]:
    """Singleton-cluster graph of ``edges`` = ``(u, v, w)`` over
    ``0..n_base-1``, keyed by encoded leaf ids.

    Only endpoints get a row (as in the Spark engines' weighted edge
    table, :func:`repro.graphs.edges.singletons`, which has no vertex
    table); self-loops are dropped and parallel edges summed.
    Raises ``ValueError`` on an id outside ``[0, n_base)`` or a weight
    that is not positive and finite: neither has a meaning in average
    linkage, and both would otherwise fail far from their cause.
    """
    adj: Adj = {}
    size: dict[int, int] = {}
    for u, v, w in edges:
        if not (0 <= u < n_base and 0 <= v < n_base):
            raise ValueError(f"edge ({u}, {v}, {w}): vertex id outside [0, {n_base})")
        if not 0.0 < w < math.inf:
            raise ValueError(f"edge ({u}, {v}, {w}): weight is not positive and finite")
        if u == v:
            continue
        eu, ev = encode_leaf(u, n_base), encode_leaf(v, n_base)
        for x in (eu, ev):
            if x not in adj:
                adj[x] = {}
                size[x] = 1
        adj[eu][ev] = adj[eu].get(ev, 0.0) + w
        adj[ev][eu] = adj[ev].get(eu, 0.0) + w
    return adj, size


def merge_pair(adj: Adj, size: dict[int, int], a: int, b: int, pid: int) -> dict[int, float]:
    """Merge clusters ``a`` and ``b`` into the new cluster ``pid``.

    ``pid``'s raw weight to each neighbour is the sum of ``a``'s and
    ``b``'s; ``a`` and ``b`` lose their rows. Only neighbours with a row
    of their own are rewired (in SubgraphHAC, inactive vertices have
    none). Returns ``pid``'s row.
    """
    nbrs = {x: r for x, r in adj.pop(a).items() if x != b}
    for x, r in adj.pop(b).items():
        if x != a:
            nbrs[x] = nbrs.get(x, 0.0) + r
    for x, r in nbrs.items():
        ax = adj.get(x)
        if ax is not None:
            ax.pop(a, None)
            ax.pop(b, None)
            ax[pid] = r
    adj[pid] = nbrs
    size[pid] = size[a] + size[b]
    return nbrs


def contract(adj: Adj, relabel: dict[int, int]) -> Adj:
    """Relabel every vertex through ``relabel`` (absent ids keep theirs),
    summing the raw weights of edges that become parallel and dropping
    those that become self-loops. Every vertex of ``adj`` and every
    target of ``relabel`` gets a row, in ``relabel``'s order first.

    Each undirected edge is summed once, from its ``a < b`` orientation,
    and the sum is mirrored into both rows: the two orientations of an
    edge stay bit-identical, as the Spark engine's single canonical row.
    """
    out: Adj = {new: {} for new in relabel.values()}
    for a in adj:
        out.setdefault(relabel.get(a, a), {})
    for a, nb in adj.items():
        na = relabel.get(a, a)
        for b, raw in nb.items():
            if a < b:
                nb_ = relabel.get(b, b)
                if na != nb_:
                    lo, hi = (na, nb_) if na < nb_ else (nb_, na)
                    out[lo][hi] = out[lo].get(hi, 0.0) + raw
    for a, row in out.items():
        for b in [b for b in row if b > a]:
            out[b][a] = row[b]
    return out
