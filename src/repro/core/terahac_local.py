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

Outside the kernel and the contraction, a round reads the graph once:
:func:`_scan`, run after ``build`` and after each contraction, yields
every vertex's best neighbour and ``w_max`` and the heavy-edge and edge
counts, and pruning, the partition, the loop condition and the round's
stats all read it (its docstring says why pruning leaves it exact).
"""
from __future__ import annotations

from itertools import chain

from repro.core.dendrogram import Dendrogram
from repro.core.goodness import INF, goodness
from repro.core.localgraph import DSU, Adj, build, contract
from repro.core.stats import RoundStats, TeraHACResult
from repro.core.subgraph_hac import Merge, subgraph_hac


def _scan(
    adj: dict[int, dict[int, float]], size: dict[int, int], t: float
) -> tuple[dict[int, int], dict[int, float], int, int]:
    """One pass over every vertex's row: ``(best, w_max, heavy, edges)``.

    ``best[a]`` is ``a``'s neighbour of max ``(w, id)`` and ``w_max[a]``
    its weight (0.0 for an empty row, which has no ``best``); ``heavy``
    counts the edges with ``w >= t`` and ``edges`` all edges. Both
    orientations of an edge hold the same raw weight bit for bit
    (:mod:`repro.core.localgraph`'s ``build`` and ``contract``), so each
    is counted as half of its two directed rows.

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


def _affinity_partition(
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
    share an id. The local engine passes its :func:`_scan`'s ``best``;
    the Spark engine labels a round here once its edges fit the cap.
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


def _groups(adj: Adj, clusters: dict[int, int]) -> dict[int, Adj]:
    """``{cluster: {member: copy of its row}}``, the kernel's inputs.

    Clusters and members come in order of first appearance in a scan of
    the ``a < b`` edges in ``adj`` order, ``a`` before ``b``. The
    kernel's mapping order, and so the order of the contraction's sums,
    follows it; the golden digests pin it bit for bit."""
    seen = dict.fromkeys(chain.from_iterable(
        chain((a,), filter(a.__lt__, nb)) for a, nb in adj.items() if max(nb) > a
    ))
    out: dict[int, Adj] = {}
    for x in seen:
        out.setdefault(clusters[x], {})[x] = dict(adj[x])
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
    reach 2.19x it; see
    :func:`repro.graphs.affinity.size_constrained_affinity`). Raises
    ``ValueError`` on an id outside ``0..n_base-1`` or a weight that is
    not positive and finite.
    """
    adj, size = build(edges, n_base)
    return _rounds(
        adj, size, dict.fromkeys(adj, INF), 1, [], [],
        n_base, eps, t, max_subgraph_edges, max_rounds, collect_stats,
    )


def _rounds(
    adj: dict[int, dict[int, float]],
    size: dict[int, int],
    m: dict[int, float],
    first_round: int,
    merges: list[Merge],
    stats: list[RoundStats],
    n_base: int,
    eps: float,
    t: float,
    max_subgraph_edges: int,
    max_rounds: int,
    collect_stats: bool,
    graph_counts: bool = True,
) -> TeraHACResult:
    """Rounds ``first_round..max_rounds`` of Algorithm 1, then the result.

    ``adj``/``size``/``m`` is the graph as round ``first_round`` starts:
    every vertex has an edge, and both orientations of an edge hold the
    same raw weight bit for bit. ``merges`` and ``stats`` hold the
    earlier rounds' and are extended in place. The Spark engine finishes
    a run here (:mod:`repro.core.terahac`) with
    ``graph_counts=collect_stats``: without it a round's ``n_vertices``
    and ``n_edges`` are -1, as in its Spark rounds.
    """
    best, w_max, heavy, n_edges = _scan(adj, size, t)
    prune_at = t / (1.0 + eps)

    rounds = first_round - 1
    for rounds in range(first_round, max_rounds + 1):
        if heavy == 0:
            rounds -= 1
            break

        n_good = None
        if collect_stats:
            n_good = sum(
                1
                for a, nb in adj.items()
                for b, raw in nb.items()
                if a < b
                and goodness(
                    w_max[a], w_max[b], m[a], m[b], raw / (size[a] * size[b])
                ) <= 1 + eps
            )

        deg = {a: len(nb) for a, nb in adj.items()}
        clusters = _affinity_partition(best, deg, max_subgraph_edges)
        round_merges: list[Merge] = []
        relabel: dict[int, int] = {}
        for group in _groups(adj, clusters).values():
            res = subgraph_hac(group, size, m, eps, n_base)
            round_merges.extend(res.merges)
            relabel.update(res.mapping)

        if not round_merges:
            # A mutual-best pair is good and never split (graphs/affinity.py).
            raise RuntimeError(f"round {rounds} made no merge: Lemma 2 invariant broken")

        merges.extend(round_merges)
        stats.append(
            RoundStats(
                round=rounds,
                n_vertices=len(adj) if graph_counts else -1,
                n_edges=n_edges if graph_counts else -1,
                n_heavy=heavy,
                n_merges=len(round_merges),
                n_good=n_good,
            )
        )

        # --- contraction (the kernel added the new ids' size and M) ---
        adj = contract(adj, relabel)
        best, w_max, heavy, n_edges = _scan(adj, size, t)

        # --- vertex pruning + isolated removal (exact: see _scan) ---
        drop = [a for a in adj if not adj[a] or w_max[a] < prune_at]
        for a in drop:
            row = adj.pop(a)
            n_edges -= len(row)
            best.pop(a, None)
            for b in row:
                del adj[b][a]
    else:
        last = stats[-1] if stats else None
        raise RuntimeError(f"TeraHAC did not finish within {max_rounds} rounds; last round: {last}")

    return TeraHACResult(
        dendrogram=Dendrogram(n_base=n_base, merges=merges),
        rounds=rounds,
        stats=stats,
    )
