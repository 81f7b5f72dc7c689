"""Shared-memory TeraHAC engine (paper §5, "Shared-Memory Implementation").

The exact round structure of Algorithm 1 — size-constrained affinity
partitioning, SubgraphHAC per partition, contraction, vertex pruning —
executed in-process. Semantics are identical to the Spark engine
(:mod:`repro.core.terahac`): both call the same
:func:`repro.core.subgraph_hac.subgraph_hac` kernel and the same
partitioning rule (best-edge = max (w, neighbour-id) lexicographically;
component label = min member id; over-cap clusters split by the
mutual-best-pair key), which the test suite exploits to check engine
equivalence, with and without a cap. Used for the Table 2 quality grid
and the round-count studies, where a 1.8k-vertex graph through 100 Spark
rounds would only measure scheduler latency.
"""
from __future__ import annotations

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import goodness
from repro.core.localgraph import DSU, build, contract
from repro.core.stats import RoundStats, TeraHACResult
from repro.core.subgraph_hac import Merge, subgraph_hac

INF = float("inf")


def _affinity_partition(
    adj: dict[int, dict[int, float]],
    size: dict[int, int],
    max_subgraph_edges: int,
) -> dict[int, int]:
    """Size-constrained affinity clustering on the local graph.

    Returns vertex -> cluster id by the rule of
    :func:`repro.graphs.affinity.size_constrained_affinity`: per-vertex
    best edge by max (w, neighbour-id), components by min id, and a
    cluster whose shipped load (sum of member degrees) exceeds the cap
    split by a key that keeps every mutual-best pair in one part.
    """
    best: dict[int, int] = {}
    dsu = DSU()
    for u, nb in adj.items():
        if nb:
            su = size[u]
            best[u] = max(nb, key=lambda b: (nb[b] / (su * size[b]), b))
            dsu.union(u, best[u])
    comp = {u: dsu.find(u) for u in adj}
    load: dict[int, int] = {}
    for u in adj:
        load[comp[u]] = load.get(comp[u], 0) + len(adj[u])
    out: dict[int, int] = {}
    for u in adj:
        c = comp[u]
        nparts = max(1, -(-load[c] // max_subgraph_edges))
        if nparts <= 1:
            out[u] = c
        else:
            b = best.get(u)
            key = min(u, b) if best.get(b) == u else u
            out[u] = -(c * nparts + key % nparts) - 1
    return out


def terahac_local(
    edges: list[tuple[int, int, float]],
    n_base: int,
    eps: float = 0.1,
    t: float = 0.01,
    max_subgraph_edges: int = 1 << 30,
    max_rounds: int = 200,
    collect_stats: bool = False,
) -> TeraHACResult:
    """Run TeraHAC on ``edges`` = ``(u, v, w)`` over vertices 0..n_base-1.

    ``t`` is the weight threshold (Algorithm 1): the loop stops once no
    edge of weight >= t remains, and each round prunes vertices whose max
    incident weight is < t/(1+eps). ``t=0`` computes the full
    (1+eps)-approximate dendrogram. ``max_subgraph_edges`` is the load
    the partitioner targets per SubgraphHAC call, not a bound (parts
    reach 1.3-1.7x it; see
    :func:`repro.graphs.affinity.size_constrained_affinity`). Raises
    ``ValueError`` on an id outside ``0..n_base-1`` or a weight that is
    not positive and finite.
    """
    adj, size = build(edges, n_base)
    m = dict.fromkeys(adj, INF)

    merges: list[Merge] = []
    stats: list[RoundStats] = []
    prune_at = t / (1.0 + eps)

    def wfn(a: int, b: int) -> float:
        return adj[a][b] / (size[a] * size[b])

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        n_edges = sum(len(nb) for nb in adj.values()) // 2
        heavy = sum(
            1 for a in adj for b in adj[a] if a < b and wfn(a, b) >= t
        )
        if heavy == 0:
            rounds -= 1
            break

        n_good = None
        if collect_stats:
            wmax = {a: max((wfn(a, b) for b in adj[a]), default=0.0) for a in adj}
            n_good = sum(
                1
                for a in adj
                for b in adj[a]
                if a < b
                and goodness(wmax[a], wmax[b], m[a], m[b], wfn(a, b)) <= 1 + eps
            )

        clusters = _affinity_partition(adj, size, max_subgraph_edges)
        groups: dict[int, list] = {}
        for a in adj:
            for b, raw in adj[a].items():
                if a < b:
                    ca, cb = clusters[a], clusters[b]
                    row_a = (a, b, raw, size[a], size[b], m[a], m[b], True, ca == cb)
                    groups.setdefault(ca, []).append(row_a)
                    if cb != ca:
                        groups.setdefault(cb, []).append(
                            (a, b, raw, size[a], size[b], m[a], m[b], False, True)
                        )

        round_merges: list[Merge] = []
        mapping: dict[int, tuple[int, int, float]] = {}
        for rows in groups.values():
            res = subgraph_hac(rows, eps, n_base)
            round_merges.extend(res.merges)
            mapping.update(res.mapping)

        if not round_merges:
            # A mutual-best pair is good and never split (graphs/affinity.py).
            raise RuntimeError(f"round {rounds} made no merge: Lemma 2 invariant broken")

        merges.extend(round_merges)
        stats.append(
            RoundStats(
                round=rounds,
                n_vertices=len(adj),
                n_edges=n_edges,
                n_heavy=heavy,
                n_merges=len(round_merges),
                n_good=n_good,
            )
        )

        # --- contraction ---
        for old, (new, s, mm) in mapping.items():
            size[new] = s
            m[new] = mm
        adj = contract(adj, {old: new for old, (new, _, _) in mapping.items()})

        # --- vertex pruning + isolated removal ---
        drop = [
            a
            for a in adj
            if not adj[a]
            or max(wfn(a, b) for b in adj[a]) < prune_at
        ]
        for a in drop:
            for b in adj[a]:
                del adj[b][a]
            del adj[a]
    else:
        last = stats[-1] if stats else None
        raise RuntimeError(f"TeraHAC did not finish within {max_rounds} rounds; last round: {last}")

    return TeraHACResult(
        dendrogram=Dendrogram(n_base=n_base, merges=merges),
        rounds=rounds,
        stats=stats,
    )
