"""Per-call correctness gate, independent of the engines' own code paths.

Each check returns ``None`` when the call passes and a one-line reason
when it fails.
"""
from __future__ import annotations

from repro.core.goodness import encode_leaf, merge_id
from repro.core.stats import TeraHACResult

INF = float("inf")


def replay(
    edges: list[tuple[int, int, float]],
    n_base: int,
    result: TeraHACResult,
    eps: float,
    t: float,
    tol: float = 1e-9,
) -> str | None:
    """Replay ``result``'s merges round by round on the input graph.

    Every merge must be (1+eps)-good when it is applied (Definition 2,
    with M recomputed here, never taken from the engine), its similarity
    and id must match the replayed clusters, and the merged cluster must
    satisfy the Lemma 2 invariant ``w_max <= (1+eps) * M``. Between rounds
    the replay prunes as Algorithm 1 does; after the last round no edge of
    weight >= t may remain. Merges of one round come from disjoint
    partitions, and a neighbour's merge only averages an endpoint's edge
    weights down, so any engine-valid run passes in emission order.
    """
    size: dict[int, int] = {}
    m: dict[int, float] = {}
    adj: dict[int, dict[int, float]] = {}
    for u, v, w in edges:
        if u == v:
            continue
        a, b = encode_leaf(u, n_base), encode_leaf(v, n_base)
        for x in (a, b):
            if x not in adj:
                adj[x], size[x], m[x] = {}, 1, INF
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[a][b]

    def wmax(x: int) -> float:
        return max((r / (size[x] * size[y]) for y, r in adj[x].items()), default=0.0)

    merges = result.dendrogram.merges
    per_round = [st.n_merges for st in result.stats]
    if len(per_round) != result.rounds or sum(per_round) != len(merges):
        return f"round stats ({per_round}) do not match {result.rounds} rounds / {len(merges)} merges"
    limit = (1.0 + eps) * (1.0 + tol)
    pos = 0
    for rnd, k in enumerate(per_round, 1):
        for mg in merges[pos : pos + k]:
            u, v, p = mg.left, mg.right, mg.parent
            if u not in adj or v not in adj[u]:
                return f"round {rnd}: merge {p} joins {u} and {v}, which are not adjacent"
            w_uv = adj[u][v] / (size[u] * size[v])
            g = max(wmax(u), wmax(v)) / min(m[u], m[v], w_uv)
            if g > limit:
                return f"round {rnd}: merge {p} has goodness {g!r} > 1+eps"
            if abs(mg.similarity - w_uv) > tol * w_uv:
                return f"round {rnd}: merge {p} reports similarity {mg.similarity!r}, replay gives {w_uv!r}"
            if p != merge_id(u, v, n_base) or p in adj:
                return f"round {rnd}: merge of {u} and {v} has id {p}, expected {merge_id(u, v, n_base)}"
            nbrs: dict[int, float] = {}
            for x, r in adj.pop(u).items():
                if x != v:
                    nbrs[x] = nbrs.get(x, 0.0) + r
            for x, r in adj.pop(v).items():
                if x != u:
                    nbrs[x] = nbrs.get(x, 0.0) + r
            for x, r in nbrs.items():
                ax = adj[x]
                ax.pop(u, None)
                ax.pop(v, None)
                ax[p] = r
            adj[p], size[p], m[p] = nbrs, size[u] + size[v], min(m[u], m[v], w_uv)
            if wmax(p) > limit * m[p]:
                return f"round {rnd}: merge {p} breaks the Lemma 2 invariant"
        pos += k
        prune_at = t / (1.0 + eps)
        for x in [x for x in adj if not adj[x] or wmax(x) < prune_at]:
            for y in adj[x]:
                del adj[y][x]
            del adj[x]
    heavy = [(x, y) for x in adj for y in adj[x] if x < y and adj[x][y] / (size[x] * size[y]) >= t]
    if heavy:
        return f"{len(heavy)} edges of weight >= t remain after the last round"
    return None


def same_merges(
    got: TeraHACResult, want: TeraHACResult, rel_tol: float = 0.0
) -> str | None:
    """Same rounds and merge set; similarities agree within ``rel_tol``.

    ``rel_tol=0`` demands bit-identical merges in the same order (a repeat
    call of one engine); a positive ``rel_tol`` compares the merge sets of
    two engines, whose raw weight sums are added in different orders.
    """
    if got.rounds != want.rounds:
        return f"{got.rounds} rounds, expected {want.rounds}"
    a, b = got.dendrogram.merges, want.dendrogram.merges
    if rel_tol == 0.0:
        return None if a == b else "merges differ from the reference call"
    key = lambda mg: (mg.parent, mg.left, mg.right)  # noqa: E731
    a, b = sorted(a, key=key), sorted(b, key=key)
    if [key(x) for x in a] != [key(x) for x in b]:
        return f"merge sets differ ({len(a)} vs {len(b)} merges)"
    for x, y in zip(a, b):
        if abs(x.similarity - y.similarity) > rel_tol * abs(y.similarity):
            return f"merge {x.parent}: similarity {x.similarity!r} vs {y.similarity!r}"
    return None
