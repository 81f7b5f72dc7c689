"""SubgraphHAC (Algorithms 2/4 of the paper): a maximal sequence of
(1+eps)-good merges among the *active* vertices of one partition's
subgraph G^C.

This is the per-machine kernel of TeraHAC; the Spark engine runs it inside
``applyInPandas`` (one call per affinity cluster), the local engine calls
it directly. The implementation is the lazy-heap approach of Appendix B
with exact (rather than (1+alpha)-approximate) goodness maintenance —
exactness is affordable because partitions are size-capped, and it
strengthens the guarantee: *every* merge performed is exactly good at
merge time, and at termination *no* good active-active merge remains
(verified by a full rescan loop, re-filling the heap until a scan comes
up empty; goodness of an edge can decrease when other merges lower its
endpoints' w_max, so a single heap pass is not sufficient for maximality).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.goodness import goodness, merge_id, merged_m
from repro.core.localgraph import merge_pair

INF = float("inf")


@dataclass(frozen=True)
class Merge:
    """One dendrogram merge: ``parent = left U right`` at ``similarity``."""

    parent: int
    left: int
    right: int
    similarity: float


@dataclass
class SubgraphHACResult:
    """Merges (in performed order) and the vertex mapping of one call.

    ``mapping`` maps every *active input* vertex id to
    ``(final_cluster_id, final_size, final_m)``; unmerged vertices map to
    themselves with their input metadata.
    """

    merges: list[Merge]
    mapping: dict[int, tuple[int, int, float]]


def subgraph_hac(
    edge_rows: list[tuple[int, int, float, int, int, float, float, bool, bool]],
    eps: float,
    n_base: int,
) -> SubgraphHACResult:
    """Run SubgraphHAC on one subgraph.

    ``edge_rows``: ``(u, v, raw, size_u, size_v, m_u, m_v, active_u,
    active_v)`` — every edge of G^C exactly once (any orientation). ``raw``
    is the un-normalized average-linkage weight ``w * size_u * size_v``.
    Inactive-inactive edges must not appear (they are not part of G^C).
    """
    size: dict[int, int] = {}
    m: dict[int, float] = {}
    active: set[int] = set()
    adj: dict[int, dict[int, float]] = {}

    for u, v, raw, su, sv, mu, mv, au, av in edge_rows:
        if not (au or av):
            raise ValueError(f"inactive-inactive edge ({u},{v}) is not part of G^C")
        size[u], size[v] = int(su), int(sv)
        m[u], m[v] = float(mu), float(mv)
        if au:
            active.add(u)
        if av:
            active.add(v)
        # Adjacency is kept for active endpoints only; inactive vertices
        # never merge, so their w_max is never needed (Definition 2 uses
        # the w_max of the two *merging* vertices, which are both active).
        if au:
            adj.setdefault(u, {})[v] = adj.setdefault(u, {}).get(v, 0.0) + float(raw)
        if av:
            adj.setdefault(v, {})[u] = adj.setdefault(v, {}).get(u, 0.0) + float(raw)

    for a in active:
        adj.setdefault(a, {})

    input_active = set(active)
    parent: dict[int, int] = {}
    merges: list[Merge] = []

    def weight(x: int, y: int) -> float:
        return adj[x][y] / (size[x] * size[y])

    def w_max(x: int) -> float:
        ax = adj[x]
        if not ax:
            return 0.0
        sx = size[x]
        return max(r / (sx * size[y]) for y, r in ax.items())

    def edge_goodness(x: int, y: int) -> float:
        return goodness(w_max(x), w_max(y), m[x], m[y], weight(x, y))

    limit = 1.0 + eps
    heap: list[tuple[float, int, int]] = []

    def scan_refill() -> int:
        """Push every currently-good active-active edge; return how many."""
        pushed = 0
        for x in active:
            for y in adj[x]:
                if y in active and x < y:
                    g = edge_goodness(x, y)
                    if g <= limit:
                        heapq.heappush(heap, (g, x, y))
                        pushed += 1
        return pushed

    scan_refill()

    while True:
        progressed = False
        while heap:
            g_old, u, v = heapq.heappop(heap)
            if u not in active or v not in active or v not in adj[u]:
                continue
            g = edge_goodness(u, v)
            if g > limit:
                continue  # stale; the rescan loop will resurrect it if it improves
            if g > g_old * (1.0 + 1e-12) and heap and heap[0][0] < g:
                heapq.heappush(heap, (g, u, v))  # no longer the min; retry later
                continue
            # --- perform the (1+eps)-good merge of u and v ---
            w_uv = weight(u, v)
            new_id = merge_id(u, v, n_base)
            nbrs = merge_pair(adj, size, u, v, new_id)
            m[new_id] = merged_m(m[u], m[v], w_uv)
            active.discard(u)
            active.discard(v)
            active.add(new_id)
            parent[u] = new_id
            parent[v] = new_id
            merges.append(Merge(new_id, u, v, w_uv))
            progressed = True
            for x in nbrs:
                if x in active:
                    a, b = (new_id, x) if new_id < x else (x, new_id)
                    g2 = edge_goodness(a, b)
                    if g2 <= limit:
                        heapq.heappush(heap, (g2, a, b))
        # Maximality: merges elsewhere in this subgraph may have *lowered*
        # the goodness of edges we previously discarded. Rescan until dry.
        if not progressed or scan_refill() == 0:
            break

    mapping: dict[int, tuple[int, int, float]] = {}
    for vtx in input_active:
        cur = vtx
        while cur in parent:
            cur = parent[cur]
        mapping[vtx] = (cur, size[cur], m[cur])
    return SubgraphHACResult(merges=merges, mapping=mapping)
