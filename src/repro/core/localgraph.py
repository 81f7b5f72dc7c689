"""In-process weighted graph core shared by every local HAC loop.

A local graph is ``adj: {id: {neighbour: raw}}`` plus ``size: {id:
leaves}``, with both orientations of every edge stored and ``raw`` the
*sum* of point-pair similarities between two clusters (average-linkage
weight times ``size_u * size_v``, as in :mod:`repro.graphs.edges`).
Keeping the sum makes merging two clusters, or contracting many, an
exact add of raw weights — the one rule every engine relies on, kept
here: the TeraHAC engines, SubgraphHAC, exact HAC, RAC, ParHAC, SCC and
the greedy replay of :func:`repro.core.dendrogram.empirical_approx_ratio`.

Affinity clustering (Bateni et al. [7]), which TeraHAC's partitioner,
SCC, RAC and ParHAC share, is kept here too: :func:`scan` marks each
vertex's best edge and :func:`affinity_partition` labels the marked
forest.
"""
from __future__ import annotations

import math
import sys

from repro.core.goodness import encode_leaf

Adj = dict[int, dict[int, float]]
# A cap no load reaches: affinity_partition then splits no cluster.
NO_CAP = sys.maxsize


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


def check_edge(u: int, v: int, w: float, n_base: int) -> None:
    """Raise ``ValueError`` on an id outside ``[0, n_base)`` or a weight
    that is not positive and finite: neither has a meaning in average
    linkage, and both would otherwise fail far from their cause."""
    if not (0 <= u < n_base and 0 <= v < n_base):
        raise ValueError(f"edge ({u}, {v}, {w}): vertex id outside [0, {n_base})")
    if not 0.0 < w < math.inf:
        raise ValueError(f"edge ({u}, {v}, {w}): weight is not positive and finite")


def build(
    edges: list[tuple[int, int, float]], n_base: int
) -> tuple[Adj, dict[int, int]]:
    """Singleton-cluster graph of ``edges`` = ``(u, v, w)`` over
    ``0..n_base-1``, keyed by encoded leaf ids.

    Only endpoints get a row (as in the Spark engines' weighted edge
    table, :func:`repro.graphs.edges.singletons`, which has no vertex
    table); self-loops are dropped and parallel edges summed. Raises
    :func:`check_edge`'s ``ValueError`` on a bad edge.
    """
    adj: Adj = {}
    size: dict[int, int] = {}
    for u, v, w in edges:
        check_edge(u, v, w, n_base)
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


def scan(
    adj: Adj, size: dict[int, int], t: float
) -> tuple[dict[int, int], dict[int, float], int, int]:
    """One pass over every vertex's row: ``(best, w_max, heavy, edges)``.

    ``best[a]`` is ``a``'s neighbour of max ``(w, id)`` and ``w_max[a]``
    its weight (0.0 for an empty row, which has no ``best``); ``heavy``
    counts the edges with ``w >= t`` and ``edges`` all edges. Both
    orientations of an edge hold the same raw weight bit for bit
    (:func:`build`, :func:`merge_pair` and :func:`contract`), so each is
    counted as half of its two directed rows. The edges of weight >= a
    floor that a vertex marks (SCC, RAC, ParHAC) are ``best[a]`` where
    ``w_max[a] >= floor``: the best edge reaches the floor exactly when
    some edge does.

    Pruning the vertices with ``w_max < t/(1+eps)`` leaves the scan exact
    for the survivors. If ``best(b) = a`` and ``a`` is pruned, then
    ``w_max(b) = w(a, b) <= w_max(a) < t/(1+eps)``, so ``b`` is pruned
    too: a survivor's best neighbour, and with it its ``w_max``, survives.
    An edge with ``w >= t`` keeps both endpoints, so ``heavy`` is the
    same after pruning; ``edges`` loses the pruned rows' edges.
    """
    best: dict[int, int] = {}
    w_max: dict[int, float] = {}
    heavy = directed = 0
    for a, nb in adj.items():
        sa = size[a]
        top, at = 0.0, -1
        for b, raw in nb.items():
            w = raw / (sa * size[b])
            if w >= t:
                heavy += 1
            if w > top or (w == top and b > at):
                top, at = w, b
        w_max[a] = top
        if nb:
            best[a] = at
        directed += len(nb)
    return best, w_max, heavy // 2, directed // 2


def affinity_partition(
    best: dict[int, int], deg: dict[int, int], max_subgraph_edges: int
) -> dict[int, int]:
    """Size-constrained affinity clustering of the vertices ``deg`` holds.

    ``best`` maps each vertex to its neighbour of max (w, neighbour-id)
    and ``deg`` each vertex to its degree; nothing else of the graph is
    read. Returns vertex -> cluster id by the rule of
    :func:`repro.graphs.affinity.size_constrained_affinity`: components
    of the marked edges labelled by min id, and a cluster whose shipped
    load (sum of member degrees) exceeds the cap split by a key that
    keeps every mutual-best pair in one part. A part's id is
    ``-(its min member) - 1``, so parts of different clusters never
    share an id. The local TeraHAC engine passes its :func:`scan`'s
    ``best`` and the Spark engine labels a round here once its edges fit
    the cap; SCC and ParHAC pass :data:`NO_CAP`, so every cluster is one
    marked component, labelled by its min id.
    """
    dsu = DSU()
    for u, b in best.items():
        dsu.union(u, b)
    comp: dict[int, int] = {}
    load: dict[int, int] = {}
    for u, d in deg.items():
        c = comp[u] = dsu.find(u)
        load[c] = load.get(c, 0) + d
    out: dict[int, int] = {}
    parts: dict[int, tuple[int, int]] = {}  # split member -> (tree, part index)
    low: dict[tuple[int, int], int] = {}  # part -> min member
    for u, c in comp.items():
        nparts = max(1, -(-load[c] // max_subgraph_edges))
        if nparts <= 1:
            out[u] = c
        else:
            b = best.get(u)
            key = min(u, b) if best.get(b) == u else u
            part = parts[u] = (c, key % nparts)
            low[part] = min(low.get(part, u), u)
    for u, part in parts.items():
        out[u] = -low[part] - 1
    return out
