"""Workload definitions and seeded input generation.

The engine receives only the generated inputs; the seed is the only
source of randomness. The rMAT workloads draw a pool of independent
graphs per seed and time every graph of the pool in each sweep: single
rMAT graphs of one size differ in cost by up to 1.6x from seed to seed,
and averaging over the pool keeps that out of the run-to-run spread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth_data import degree_weights_local, rmat_edges, web_query_lite


@dataclass(frozen=True)
class Input:
    """One engine input: edges ``(u, v, w)`` over vertices ``0..n-1``.

    ``pairs`` are the labelled ``(a, b, same_intent)`` query pairs of
    web-query-lite, or empty where the generator has no labels.
    """

    edges: list[tuple[int, int, float]]
    n: int
    pairs: list[tuple[int, int, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "spark": terahac(); "local": terahac_local()
    eps: float
    t: float
    max_subgraph_edges: int
    pool: int  # inputs drawn per seed


RMAT_SCALE = 8
WQ_N = 40
WQ_GRAPH_SEED = 21  # web_query_lite's default seed
WQ_IDS = 4 * WQ_N

WORKLOADS = {
    w.name: w
    for w in (
        Workload("rmat-local", "local", 0.1, 0.01, 1 << 30, pool=32),
        Workload("rmat-local-split", "local", 0.1, 0.01, 500, pool=32),
        # Table 3's eps and t. The cap (150) is above every affinity
        # cluster's load (a cap of 100 already splits nothing on 30
        # relabellings), so Spark == local holds exactly. It is below the
        # graph's total load in round 1 (214 rows), so a small-graph
        # cutover cannot skip that Spark round.
        Workload("wq-spark", "spark", 0.1, 0.05, 150, pool=1),
    )
}

# Warm-up input of the Spark workload: one edge, merged in one round,
# so every query plan of a round and the final heavy-edge count are
# compiled once before timing.
WARMUP = Input([(0, 1, 1.0)], 2, [])


def _sub_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int) -> list[Input]:
    """The ``w.pool`` inputs of workload ``w`` for ``seed``."""
    if w.engine == "spark":
        # The seed maps the vertices of one web-query-lite graph to distinct
        # ids in 0..WQ_IDS-1, keeping their order: ids, hashes and partition
        # labels change with it, the merge order and the iteration counts
        # of connected components (min-label propagation) do not. A
        # permutation instead moves a call between ~215 and ~250 Spark
        # jobs, and graphs drawn per seed take 2 to 5 rounds.
        edges, _, pairs = web_query_lite(n=WQ_N, seed=WQ_GRAPH_SEED)
        p = np.sort(np.random.default_rng(seed).choice(WQ_IDS, WQ_N, replace=False))
        return [
            Input(
                [(int(p[a]), int(p[b]), x) for a, b, x in edges],
                WQ_IDS,
                [(int(p[a]), int(p[b]), same) for a, b, same in pairs],
            )
        ]
    # rMAT with the paper's a=.6, b=c=.15, edge factor 50 and
    # w = 1/ln(deg u + deg v) weights (section 6).
    return [
        Input(
            degree_weights_local(rmat_edges(scale=RMAT_SCALE, seed=_sub_seed(seed, i))),
            1 << RMAT_SCALE,
            [],
        )
        for i in range(w.pool)
    ]
