"""SubgraphHAC (Algorithms 2/4 of the paper): a maximal sequence of
(1+eps)-good merges among the *active* vertices of one partition's
subgraph G^C.

This is the per-machine kernel of TeraHAC; the Spark engine runs it inside
``applyInPandas`` (one call per affinity cluster), the local engine calls
it directly, on the graph a machine already holds: ``adj`` has one row
``{neighbour: raw}`` per active vertex and none for an inactive one, and
``size`` and ``m`` cover every vertex that ``adj`` references. The
kernel mutates ``adj`` and adds the ``size`` and ``m`` entries of the
ids it creates, changing no existing entry, so the local engine passes
its own dicts. The implementation is the lazy-heap approach of Appendix B
with exact (rather than (1+alpha)-approximate) goodness maintenance —
exactness is affordable because partitions are size-capped, and it
strengthens the guarantee: *every* merge performed is exactly good at
merge time, and at termination *no* good active-active merge remains.

``w_max`` and one neighbour attaining it are cached per active vertex.
Merging u, v into p replaces a neighbour x's edges to u and v by one edge
to p, so x is rescanned only if its cached argmax was u or v; otherwise
``w_max(x) = max(w_max(x), w(x, p))``. A float ``max`` is exact, so the
cache always equals a full scan of the row, bit for bit.

An edge can become good when other merges lower its endpoints'
``w_max``, so one heap pass is not maximal: when the heap runs dry, the
edges at vertices whose row changed since the last scan (``dirty``) are
rescanned, until a scan pushes nothing. That pushes exactly the good
edges a full rescan would:

- an edge whose endpoints' rows did not change has the same goodness
  inputs as at the last scan, so the same verdict;
- an edge that was good then was pushed, and was popped before the heap
  ran dry, merging its endpoints unless their rows changed;
- the heap orders by ``(g, a, b)``, a total order, so the same pushes give
  the same pops and the same merges.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.goodness import goodness, merge_id, merged_m
from repro.core.localgraph import merge_pair


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

    ``mapping`` maps every *active input* vertex id to the id of its
    final cluster; an unmerged vertex maps to itself. The final
    cluster's size and ``M`` are in the caller's ``size`` and ``m``.
    """

    merges: list[Merge]
    mapping: dict[int, int]


def subgraph_hac(
    adj: dict[int, dict[int, float]],
    size: dict[int, int],
    m: dict[int, float],
    eps: float,
    n_base: int,
) -> SubgraphHACResult:
    """Run SubgraphHAC on one subgraph, given as in the module docstring.

    ``raw`` is the un-normalized average-linkage weight ``w * size_u *
    size_v``. Inactive vertices never merge, so they need no row (their
    w_max is never read: Definition 2 uses the w_max of the two merging
    vertices). Values are used as given: both engines pass Python ints
    and floats.
    """
    # Insertion in adj's order, not set(adj), which sizes the table
    # differently: this set's order is mapping's, and so the caller's
    # contraction order.
    active: set[int] = set()
    for x in adj:
        active.add(x)

    input_active = set(active)
    parent: dict[int, int] = {}
    merges: list[Merge] = []

    def weight(x: int, y: int) -> float:
        return adj[x][y] / (size[x] * size[y])

    # Cached w_max and one neighbour attaining it, per active vertex.
    wmax: dict[int, float] = {}
    arg: dict[int, int] = {}

    def refresh(x: int) -> None:
        ax = adj[x]
        sx = size[x]
        best, at = 0.0, -1
        for y, r in ax.items():
            w = r / (sx * size[y])
            if w > best:
                best, at = w, y
        wmax[x], arg[x] = best, at

    def edge_goodness(x: int, y: int) -> float:
        return goodness(wmax[x], wmax[y], m[x], m[y], weight(x, y))

    for a in active:
        refresh(a)

    limit = 1.0 + eps
    heap: list[tuple[float, int, int]] = []
    # Active vertices whose row changed since the last scan.
    dirty: set[int] = set(active)

    def scan_dirty() -> int:
        """Push every currently-good active-active edge at a dirty vertex,
        each edge once; clear ``dirty`` and return how many were pushed."""
        pushed = 0
        for x in dirty:
            for y in adj[x]:
                if y in active and (x < y or y not in dirty):
                    a, b = (x, y) if x < y else (y, x)
                    g = edge_goodness(a, b)
                    if g <= limit:
                        heapq.heappush(heap, (g, a, b))
                        pushed += 1
        dirty.clear()
        return pushed

    scan_dirty()

    while True:
        progressed = False
        while heap:
            g_old, u, v = heapq.heappop(heap)
            if u not in active or v not in active or v not in adj[u]:
                continue
            g = edge_goodness(u, v)
            if g > limit:
                continue  # stale; the dirty scan resurrects it if it improves
            if g > g_old * (1.0 + 1e-12) and heap and heap[0][0] < g:
                heapq.heappush(heap, (g, u, v))  # no longer the min; retry later
                continue
            # --- perform the (1+eps)-good merge of u and v ---
            w_uv = weight(u, v)
            new_id = merge_id(u, v, n_base)
            nbrs = merge_pair(adj, size, u, v, new_id)
            m[new_id] = merged_m(m[u], m[v], w_uv)
            for x in (u, v):
                active.discard(x)
                dirty.discard(x)
            active.add(new_id)
            dirty.add(new_id)
            refresh(new_id)
            parent[u] = new_id
            parent[v] = new_id
            merges.append(Merge(new_id, u, v, w_uv))
            progressed = True
            for x in nbrs:
                if x in active:
                    dirty.add(x)
                    if arg[x] == u or arg[x] == v:
                        refresh(x)
                    else:
                        w = weight(x, new_id)
                        if w > wmax[x]:
                            wmax[x], arg[x] = w, new_id
                    a, b = (new_id, x) if new_id < x else (x, new_id)
                    g2 = edge_goodness(a, b)
                    if g2 <= limit:
                        heapq.heappush(heap, (g2, a, b))
        # Maximality: merges elsewhere in this subgraph may have *lowered*
        # the goodness of edges we previously discarded; only edges at a
        # vertex whose row changed can have moved. Rescan those until dry.
        if not progressed or scan_dirty() == 0:
            break

    mapping: dict[int, int] = {}
    for vtx in input_active:
        cur = vtx
        while cur in parent:
            cur = parent[cur]
        mapping[vtx] = cur
    return SubgraphHACResult(merges=merges, mapping=mapping)
