"""Dendrogram / merge-tree structure, Flatten (Algorithm 3), and the
greedy merge sequence + empirical approximation ratio (Definition 3,
Lemma 3).

All HAC algorithms in this repo (TeraHAC both engines, exact graph HAC,
RAC, ParHAC) emit the same structure: a list of
:class:`~repro.core.subgraph_hac.Merge` records over encoded node ids
(see :mod:`repro.core.goodness`), which makes every evaluation utility
shared.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.goodness import decode_rep, decode_size, encode_leaf
from repro.core.localgraph import build, merge_pair
from repro.core.subgraph_hac import Merge

INF = float("inf")


@dataclass
class Dendrogram:
    """A (possibly partial) HAC dendrogram over ``n_base`` original vertices.

    ``merges`` lists every internal node; order is the order of emission
    (meaningful for sequential algorithms, arbitrary across TeraHAC
    partitions). Vertices that never merged are singleton roots.
    """

    n_base: int
    merges: list[Merge] = field(default_factory=list)

    # ----- structure ---------------------------------------------------
    def children(self) -> dict[int, tuple[int, int]]:
        """parent id -> (left, right)."""
        return {mg.parent: (mg.left, mg.right) for mg in self.merges}

    def similarity(self) -> dict[int, float]:
        """parent id -> linkage similarity of the merge that created it."""
        return {mg.parent: mg.similarity for mg in self.merges}

    def parents(self) -> dict[int, int]:
        """child id -> parent id."""
        out: dict[int, int] = {}
        for mg in self.merges:
            out[mg.left] = mg.parent
            out[mg.right] = mg.parent
        return out

    def roots(self) -> list[int]:
        """Top-level cluster ids (merged roots plus never-merged leaves)."""
        par = self.parents()
        rts = [mg.parent for mg in self.merges if mg.parent not in par]
        merged_leaves = set(par)
        rts += [
            encode_leaf(v, self.n_base)
            for v in range(self.n_base)
            if encode_leaf(v, self.n_base) not in merged_leaves
        ]
        return rts

    def leaves_of(self, node: int, children: dict[int, tuple[int, int]] | None = None) -> list[int]:
        """Original vertex ids under ``node``."""
        ch = self.children() if children is None else children
        out: list[int] = []
        stack = [node]
        while stack:
            x = stack.pop()
            if x in ch:
                stack.extend(ch[x])
            else:
                out.append(decode_rep(x, self.n_base) if decode_size(x, self.n_base) == 1 else -1)
                if out[-1] < 0:
                    raise ValueError(f"non-leaf node {x} has no children record")
        return out

    def internal_cluster_sets(self) -> set[frozenset[int]]:
        """Set of leaf-sets of all internal nodes — the order-free identity
        of a dendrogram (used to compare TeraHAC eps=0 with exact HAC)."""
        ch = self.children()
        memo: dict[int, frozenset[int]] = {}

        def leaves(x: int) -> frozenset[int]:
            if x in memo:
                return memo[x]
            if x in ch:
                l, r = ch[x]
                s = leaves(l) | leaves(r)
            else:
                s = frozenset([decode_rep(x, self.n_base)])
            memo[x] = s
            return s

        return {leaves(mg.parent) for mg in self.merges}

    # ----- Flatten (Algorithm 3) ---------------------------------------
    def flatten(self, t: float) -> np.ndarray:
        """Flat clustering at threshold ``t``: for each root, descend while
        linkage similarity < t; the topmost nodes with similarity >= t
        become clusters (leaves have similarity +inf, so untouched vertices
        are singletons). Returns integer labels of length ``n_base``."""
        ch = self.children()
        sim = self.similarity()
        labels = np.full(self.n_base, -1, dtype=np.int64)
        next_label = 0
        for root in self.roots():
            stack = [root]
            while stack:
                x = stack.pop()
                s = sim.get(x, INF)  # leaves: +inf
                if s >= t:
                    for leaf in self.leaves_of(x, ch):
                        labels[leaf] = next_label
                    next_label += 1
                else:
                    stack.extend(ch[x])
        assert (labels >= 0).all()
        return labels

    def flat_cluster_min_merge(self, t: float) -> list[float]:
        """For each flattened cluster, the minimum linkage similarity of any
        merge used to create it (Lemma 8 checks these are >= t/(1+eps)).
        Singleton clusters report +inf."""
        ch = self.children()
        sim = self.similarity()
        out: list[float] = []
        for root in self.roots():
            stack = [root]
            while stack:
                x = stack.pop()
                if sim.get(x, INF) >= t:
                    mn = INF
                    sub = [x]
                    while sub:
                        y = sub.pop()
                        if y in ch:
                            mn = min(mn, sim[y])
                            sub.extend(ch[y])
                    out.append(mn)
                else:
                    stack.extend(ch[x])
        return out

    def cut_by_order(self, k: int) -> np.ndarray:
        """Flat clustering with ``k`` clusters by applying merges in emission
        order and stopping early — valid for sequential algorithms whose
        emission order is the merge order (exact HAC, NN-chain)."""
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while x in parent:
                x = parent[x]
            return x

        n_clusters = self.n_base
        for mg in self.merges:
            if n_clusters <= k:
                break
            parent[mg.left] = mg.parent
            parent[mg.right] = mg.parent
            n_clusters -= 1
        reps: dict[int, int] = {}
        labels = np.zeros(self.n_base, dtype=np.int64)
        for v in range(self.n_base):
            r = find(encode_leaf(v, self.n_base))
            labels[v] = reps.setdefault(r, len(reps))
        return labels


# ----- greedy merge sequence / empirical approximation ratio -----------
def empirical_approx_ratio(
    dendro: Dendrogram, edges: list[tuple[int, int, float]]
) -> float:
    """Empirical approximation ratio of ``dendro`` on the original graph
    (Definition 3 / Lemma 3 / §6.1): replay the merges in *greedy* order
    (always the available merge of maximum linkage similarity; a merge's
    similarity is a function of its two clusters only, hence fixed), and
    report the max over merges of (max edge weight in the current graph) /
    (merge similarity). For a (1+eps)-good dendrogram this is <= 1+eps.

    ``edges`` are original-graph edges ``(u, v, w)`` over vertices
    ``0..n_base-1`` with positive weights.
    """
    n = dendro.n_base
    adj, size = build(edges, n)
    # Never-touched vertices are still leaves the dendrogram may merge.
    for e in (encode_leaf(v, n) for v in range(n)):
        adj.setdefault(e, {})
        size.setdefault(e, 1)

    # Max-weight tracking: a live edge's normalized weight is fixed (ids
    # are never reused and sizes of live clusters never change), so heap
    # entries are exact while both endpoints live; validity is liveness.
    wheap: list[tuple[float, int, int]] = []
    for a in adj:
        for b, r in adj[a].items():
            if a < b:
                heapq.heappush(wheap, (-r / (size[a] * size[b]), a, b))

    def current_max() -> float:
        while wheap:
            nw, a, b = wheap[0]
            if a in adj and b in adj and b in adj[a]:
                return -nw
            heapq.heappop(wheap)
        return 0.0

    # Available merges: merge-tree leaves first.
    by_parent = {mg.parent: mg for mg in dendro.merges}
    pending: dict[int, int] = {}  # parent -> #children not yet materialized
    avail: list[tuple[float, int]] = []
    for mg in dendro.merges:
        need = sum(1 for c in (mg.left, mg.right) if c in by_parent)
        pending[mg.parent] = need
        if need == 0:
            heapq.heappush(avail, (-mg.similarity, mg.parent))

    child_parent = dendro.parents()
    ratio = 1.0
    done = 0
    while avail:
        nsim, pid = heapq.heappop(avail)
        mg = by_parent[pid]
        u, v = mg.left, mg.right
        w_uv = adj[u].get(v, 0.0) / (size[u] * size[v])
        mx = current_max()
        if w_uv <= 0:
            raise ValueError(f"merge {pid} has zero similarity in replay")
        ratio = max(ratio, mx / w_uv)
        for x, r in merge_pair(adj, size, u, v, pid).items():
            a, b = (pid, x) if pid < x else (x, pid)
            heapq.heappush(wheap, (-r / (size[pid] * size[x]), a, b))
        done += 1
        par = child_parent.get(pid)
        if par is not None:
            pending[par] -= 1
            if pending[par] == 0:
                heapq.heappush(avail, (-by_parent[par].similarity, par))
    if done != len(dendro.merges):
        raise ValueError("merge tree is not consistent: replay stalled")
    return ratio
