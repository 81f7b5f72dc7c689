"""Exact (1-approximate) HAC baselines.

* :func:`exact_hac_graph` — sequential average-linkage HAC on a sparse
  similarity graph: always merge the globally heaviest edge. This is the
  ground truth that TeraHAC(eps=0, t=0) must reproduce exactly (§6:
  "setting eps = 0 yields the exact HAC algorithm"), and the oracle for
  the approximation-ratio tests.
* :func:`nn_chain_metric` — average-linkage HAC over a full distance
  matrix via the nearest-neighbour-chain algorithm (UPGMA / Lance–
  Williams). Stands in for the paper's "Sci-Avg" sklearn baseline
  (Table 2, column 9), which is exactly this algorithm.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import encode_leaf, merge_id
from repro.core.localgraph import build, merge_pair
from repro.core.subgraph_hac import Merge


def exact_hac_graph(
    edges: list[tuple[int, int, float]], n_base: int, t: float = 0.0
) -> Dendrogram:
    """Sequential exact graph HAC: repeatedly merge the max-weight edge
    until every remaining weight is < ``t`` (t=0: until no edges).

    A live pair's average-linkage weight never changes while both
    endpoints are live (it depends only on the pair), so a lazy max-heap
    whose entries are invalidated by endpoint death is exact.
    """
    adj, size = build(edges, n_base)

    heap: list[tuple[float, int, int]] = []
    for a in adj:
        for b in adj[a]:
            if a < b:
                heapq.heappush(heap, (-adj[a][b] / (size[a] * size[b]), a, b))

    merges: list[Merge] = []
    while heap:
        nw, a, b = heapq.heappop(heap)
        if a not in adj or b not in adj or b not in adj[a]:
            continue
        w = -nw
        if w < t:
            break
        pid = merge_id(a, b, n_base)
        for x, r in merge_pair(adj, size, a, b, pid).items():
            p, q = (pid, x) if pid < x else (x, pid)
            heapq.heappush(heap, (-r / (size[pid] * size[x]), p, q))
        merges.append(Merge(pid, a, b, w))
    return Dendrogram(n_base=n_base, merges=merges)


def nn_chain_metric(X: np.ndarray) -> Dendrogram:
    """Average-linkage HAC over the pointset ``X`` (n x d) using the full
    Euclidean distance matrix and the NN-chain algorithm.

    The recorded linkage *similarity* of each merge is ``1/(1 + d)`` for
    merge distance ``d`` — the paper's distance-to-similarity transform —
    so the shared Dendrogram utilities apply. The merge *order* (emission
    order) is ascending in distance, so ``cut_by_order(k)`` reproduces
    sklearn's ``AgglomerativeClustering(n_clusters=k, linkage='average')``.
    """
    n = X.shape[0]
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    dist = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(dist, np.inf)

    # Working distance matrix over up to 2n-1 cluster slots.
    big = np.full((2 * n - 1, 2 * n - 1), np.inf)
    big[:n, :n] = dist
    sizes = np.ones(2 * n - 1)
    alive = np.zeros(2 * n - 1, dtype=bool)
    alive[:n] = True
    node_ids = [encode_leaf(v, n) for v in range(n)]  # slot -> encoded id
    next_slot = n

    raw: list[Merge] = []  # (slot merges recorded with distance)
    chain: list[int] = []
    n_alive = n
    while n_alive > 1:
        if not chain:
            chain.append(int(np.flatnonzero(alive)[0]))
        while True:
            a = chain[-1]
            row = np.where(alive, big[a], np.inf)
            row[a] = np.inf
            b = int(np.argmin(row))
            # Prefer the chain predecessor on ties for guaranteed termination.
            if len(chain) > 1 and row[chain[-2]] <= row[b]:
                b = chain[-2]
            if len(chain) > 1 and b == chain[-2]:
                break
            chain.append(b)
        a, b = chain[-1], chain[-2]
        chain = chain[:-2]
        d_ab = big[a][b]
        # Lance-Williams update for unweighted average linkage.
        sa, sb = sizes[a], sizes[b]
        new_row = (sa * big[a] + sb * big[b]) / (sa + sb)
        alive[a] = alive[b] = False
        s = next_slot
        next_slot += 1
        big[s, :] = new_row
        big[:, s] = new_row
        big[s, s] = np.inf
        sizes[s] = sa + sb
        alive[s] = True
        pid = merge_id(node_ids[a], node_ids[b], n)
        node_ids.append(pid)
        raw.append(Merge(pid, node_ids[a], node_ids[b], 1.0 / (1.0 + d_ab)))
        n_alive -= 1

    # NN-chain may discover merges out of ascending-distance order, but the
    # produced tree equals the greedy tree; re-sort consistently by
    # distance so cut_by_order matches sklearn's k-cluster cut.
    order = {mg.parent: i for i, mg in enumerate(raw)}
    raw.sort(key=lambda mg: (-mg.similarity, order[mg.parent]))
    return Dendrogram(n_base=n, merges=raw)
