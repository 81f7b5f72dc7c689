"""ParHAC (Dhulipala et al. [25]), simplified to its round structure.

ParHAC processes geometric weight buckets: edges within a (1+eps) factor
of the current global maximum are mergeable, and each low-depth round
contracts whole *clusters* of them (randomized cluster growing). We
model one round as one affinity-style contraction over the current
bucket — every vertex marks its best bucket edge and the components of
marked edges contract — which resolves stars in O(1) rounds and chains
in O(log) rounds, the same per-round progress profile as the real
algorithm. This reproduces ParHAC's round *counts* (Fig. 2); its
shared-memory internals are not the object of study here.
"""
from __future__ import annotations

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import merge_id
from repro.core.localgraph import NO_CAP, affinity_partition, build, merge_pair, scan
from repro.core.stats import RoundStats
from repro.core.subgraph_hac import Merge


def parhac(
    edges: list[tuple[int, int, float]],
    n_base: int,
    eps: float = 0.1,
    t: float = 0.0,
    max_rounds: int = 100_000,
) -> tuple[Dendrogram, list[RoundStats]]:
    """Run the simplified ParHAC; returns dendrogram + per-round stats."""
    adj, size = build(edges, n_base)
    merges: list[Merge] = []
    stats: list[RoundStats] = []
    for rnd in range(1, max_rounds + 1):
        best, w_max, n_edges, _ = scan(adj, size, t)
        if n_edges == 0:
            break
        floor = max(max(w_max.values()) / (1.0 + eps), t)

        # Affinity step over the bucket: mark best bucket edge per vertex,
        # contract components of marked edges.
        marked = {a: b for a, b in best.items() if w_max[a] >= floor}
        deg = {a: len(nb) for a, nb in adj.items()}
        groups: dict[int, list[int]] = {}
        for a, c in affinity_partition(marked, deg, NO_CAP).items():
            groups.setdefault(c, []).append(a)
        n_merged = 0
        for members in groups.values():
            if len(members) < 2:
                continue
            # Contract the component as a chain of binary merges, always
            # absorbing a member adjacent to the growing cluster (the
            # component is connected through marked edges, so one exists).
            members = sorted(members)
            cur = members[0]
            remaining = set(members[1:])
            while remaining:
                adjacent = [x for x in remaining if x in adj[cur]]
                nxt = min(adjacent) if adjacent else min(remaining)
                remaining.discard(nxt)
                w_cur = adj[cur][nxt] / (size[cur] * size[nxt]) if nxt in adj[cur] else 0.0
                pid = merge_id(cur, nxt, n_base)
                merge_pair(adj, size, cur, nxt, pid)
                merges.append(Merge(pid, cur, nxt, max(w_cur, 1e-300)))
                cur = pid
                n_merged += 1
        if n_merged == 0:
            break
        stats.append(
            RoundStats(
                round=rnd,
                n_vertices=len(adj) + n_merged,
                n_edges=n_edges,
                n_heavy=-1,
                n_merges=n_merged,
            )
        )
    else:
        raise RuntimeError("ParHAC did not converge")
    return Dendrogram(n_base=n_base, merges=merges), stats
