"""RAC (Sumengen et al. [56]): parallel nearest-neighbour-chain HAC.

Per round, every vertex picks its highest-weight incident edge (among
edges of weight >= t); the *reciprocal* pairs — u's best is v and v's
best is u — merge simultaneously. This computes the exact HAC dendrogram
(up to ties) but needs one round per "generation" of reciprocal pairs,
which is the round-count baseline of Fig. 2. TeraHAC with eps=0 is the
paper's "OptimizedRAC": it performs exactly the 1-good (= reciprocal)
merges but may chain several per vertex within one round.
"""
from __future__ import annotations

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import merge_id
from repro.core.localgraph import build, merge_pair, scan
from repro.core.stats import RoundStats
from repro.core.subgraph_hac import Merge


def rac(
    edges: list[tuple[int, int, float]],
    n_base: int,
    t: float = 0.0,
    max_rounds: int = 100_000,
) -> tuple[Dendrogram, list[RoundStats]]:
    """Run RAC; returns the dendrogram and per-round stats (for Fig. 2)."""
    adj, size = build(edges, n_base)
    merges: list[Merge] = []
    stats: list[RoundStats] = []
    for rnd in range(1, max_rounds + 1):
        best, w_max, _, _ = scan(adj, size, t)
        pairs = [
            (a, b) for a, b in best.items()
            if a < b and best.get(b) == a and w_max[a] >= t
        ]
        if not pairs:
            break
        for a, b in pairs:
            pid = merge_id(a, b, n_base)
            merge_pair(adj, size, a, b, pid)
            merges.append(Merge(pid, a, b, w_max[a]))
        stats.append(
            RoundStats(
                round=rnd,
                n_vertices=len(adj) + 2 * len(pairs),
                n_edges=-1,
                n_heavy=-1,
                n_merges=len(pairs),
            )
        )
    else:
        raise RuntimeError("RAC did not converge")
    return Dendrogram(n_base=n_base, merges=merges), stats
