"""Synthetic inputs for the TeraHAC reproduction (paper §6).

rMAT graphs with the paper's degree-based weighting, planted-partition
"web-query-lite" similarity graphs with labelled query pairs (the §6.3
stand-in), and uniform random weighted graphs for the property tests.
Every generator is deterministic in ``seed``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def rmat_edges(
    *, scale: int, edge_factor: int = 50, a: float = 0.6, b: float = 0.15,
    c: float = 0.15, seed: int = 7
) -> np.ndarray:
    """rMAT graph with 2^scale vertices and ``edge_factor * 2^scale``
    undirected edges before dedup (the paper's rMAT-X uses factor 50 and
    parameters a=0.6, b=c=0.15, d=0.1). Returns an (m, 2) int64 array of
    deduplicated undirected edges with u < v, no self loops."""
    g = _rng(seed)
    n_target = edge_factor << scale
    u = np.zeros(n_target, dtype=np.int64)
    v = np.zeros(n_target, dtype=np.int64)
    for _ in range(scale):
        r = g.random(n_target)
        # Quadrant choice: (0,0) w.p. a, (0,1) w.p. b, (1,0) w.p. c, (1,1) w.p. d.
        ubit = (r >= a + b).astype(np.int64)
        vbit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        u = (u << 1) | ubit
        v = (v << 1) | vbit
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs


def degree_weights_local(pairs: np.ndarray) -> list[tuple[int, int, float]]:
    """The paper's §6 weighting for unweighted graphs:
    ``w(u,v) = 1/ln(deg u + deg v)`` — in-process counterpart of
    :func:`repro.graphs.weights.degree_log_weights`."""
    deg = np.bincount(pairs.ravel())
    w = 1.0 / np.log(deg[pairs[:, 0]] + deg[pairs[:, 1]])
    return [(int(p[0]), int(p[1]), float(x)) for p, x in zip(pairs, w)]


def random_weighted_graph(
    *, n: int, avg_deg: float = 6.0, seed: int = 9
) -> list[tuple[int, int, float]]:
    """Erdős–Rényi-ish weighted graph with distinct uniform weights in
    (0, 1] — the property-test workhorse (generic weights, no ties)."""
    g = _rng(seed)
    m = max(1, int(n * avg_deg / 2))
    u = g.integers(0, n, 4 * m)
    v = g.integers(0, n, 4 * m)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    if len(pairs) > m:
        pairs = pairs[g.choice(len(pairs), m, replace=False)]
    # Continuous uniforms: distinct weights AND (almost surely) distinct
    # average-linkage values at every merge step, so the exact dendrogram
    # is unique — required by the eps=0 equivalence tests.
    w = g.random(len(pairs)) * 0.999 + 0.001
    return [(int(p[0]), int(p[1]), float(x)) for p, x in zip(pairs, w)]


def web_query_lite(
    *, n: int = 20_000, avg_cluster: float = 8.0, max_cluster: int = 40,
    clusters_per_topic: int = 5, noise_deg: float = 2.0,
    n_label_pairs: int = 2_000, pos_frac: float = 0.13, seed: int = 21
) -> tuple[list[tuple[int, int, float]], np.ndarray, list[tuple[int, int, bool]]]:
    """Planted-partition stand-in for the §6.3 Web-Query graph.

    The real graph has 31B query vertices with BERT-model edge weights and
    53,659 human-labelled intent pairs (~13% positive). We plant:

    * ground-truth *intent clusters* (sizes geometric with mean
      ``avg_cluster`` — the paper's "average cluster size is low" regime),
      each a dense subgraph (intra pairs present w.p. 0.8) with weights
      U(0.55, 1.0) — same-intent queries are pairwise similar under a
      BERT model, but not uniformly so;
    * *topics* grouping ~``clusters_per_topic`` clusters: related-intent
      queries across clusters within a topic get U(0.30, 0.75) edges
      (~2 per vertex). These overlap the intra-cluster weight range, so a
      clustering algorithm faces a genuine precision/recall tradeoff —
      flatten too low and topics collapse into one cluster;
    * global noise edges U(0.05, 0.40).

    Labelled pairs are sampled at the paper's ~13% positive rate;
    negatives are mostly *hard* (same topic, different intent).

    Returns ``(edges, truth_labels, labelled_pairs)``.
    """
    g = _rng(seed)
    sizes = np.clip(g.geometric(1.0 / avg_cluster, size=n), 1, max_cluster)
    sizes = sizes[np.cumsum(sizes) <= n]
    leftover = n - sizes.sum()
    if leftover > 0:
        sizes = np.append(sizes, np.ones(leftover, dtype=sizes.dtype))
    n_clusters = len(sizes)
    truth = np.repeat(np.arange(n_clusters), sizes)
    perm = g.permutation(n)
    truth = truth[np.argsort(perm)]  # truth[vertex] = planted cluster
    members: dict[int, np.ndarray] = {
        cid: np.flatnonzero(truth == cid) for cid in range(n_clusters)
    }
    topic_of = g.integers(0, max(1, n_clusters // clusters_per_topic), n_clusters)
    topic_members: dict[int, list[int]] = {}
    for cid in range(n_clusters):
        topic_members.setdefault(int(topic_of[cid]), []).extend(
            int(x) for x in members[cid]
        )

    edges: dict[tuple[int, int], float] = {}

    def add(a: int, b: int, w: float) -> None:
        if a == b:
            return
        k = (a, b) if a < b else (b, a)
        edges[k] = max(edges.get(k, 0.0), w)

    for mem in members.values():
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                if g.random() < 0.8:
                    add(int(mem[i]), int(mem[j]), float(0.55 + 0.45 * g.random()))
    for mem in topic_members.values():
        if len(mem) < 2:
            continue
        for _ in range(2 * len(mem)):
            x, y = mem[g.integers(0, len(mem))], mem[g.integers(0, len(mem))]
            if truth[x] != truth[y]:
                add(x, y, float(0.30 + 0.45 * g.random()))
    n_noise = int(n * noise_deg / 2)
    for x, y in zip(g.integers(0, n, n_noise), g.integers(0, n, n_noise)):
        if truth[x] != truth[y]:
            add(int(x), int(y), float(0.05 + 0.35 * g.random()))

    # labelled pairs: ~13% positive; negatives mostly same-topic (hard)
    n_pos = int(n_label_pairs * pos_frac)
    pairs: list[tuple[int, int, bool]] = []
    big = [m for m in members.values() if len(m) >= 2]
    for _ in range(n_pos):
        mem = big[g.integers(0, len(big))]
        x, y = g.choice(mem, 2, replace=False)
        pairs.append((int(x), int(y), True))
    topics = [m for m in topic_members.values() if len(m) >= 2]
    while len(pairs) < n_label_pairs:
        if g.random() < 0.7 and topics:  # hard negative: same topic
            mem = topics[g.integers(0, len(topics))]
            a, b = mem[g.integers(0, len(mem))], mem[g.integers(0, len(mem))]
        else:
            a, b = int(g.integers(0, n)), int(g.integers(0, n))
        if a != b and truth[a] != truth[b]:
            pairs.append((int(a), int(b), False))
    return (
        [(a, b, w) for (a, b), w in sorted(edges.items())],
        truth,
        pairs,
    )


def edges_to_spark(
    spark: SparkSession, edges: list[tuple[int, int, float]]
) -> DataFrame:
    """Convert an in-process edge list to the ``(u, v, w)`` DataFrame the
    Spark engines consume."""
    pdf = pd.DataFrame(edges, columns=["u", "v", "w"])
    return spark.createDataFrame(pdf)
