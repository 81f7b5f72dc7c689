"""Distributed connected components vs a union-find oracle."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.components import connected_components
from repro.graphs.io import run_dir
from tests.util import brute_components


def _run(spark, edges, vertices):
    epdf = pd.DataFrame(edges, columns=["src", "dst"])
    sym = pd.concat(
        [epdf, epdf.rename(columns={"src": "dst", "dst": "src"})]
    ).drop_duplicates()
    e = (
        spark.createDataFrame(sym)
        if len(sym)
        else spark.createDataFrame([], "src long, dst long")
    )
    v = spark.createDataFrame(pd.DataFrame({"id": vertices}))
    with run_dir(spark):
        got = {r.id: r.component for r in connected_components(e, v).collect()}
    expect = brute_components(edges, vertices)
    assert got == expect


@pytest.mark.parametrize("seed", range(4))
def test_random_graphs(spark, seed):
    rng = np.random.default_rng(seed)
    n = 60
    m = 80
    edges = list(
        {
            (int(min(a, b)), int(max(a, b)))
            for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
            if a != b
        }
    )
    _run(spark, edges, list(range(n)))


def test_path_graph_needs_doubling(spark):
    """A long path exercises the pointer-doubling shortcut (plain
    propagation would need O(n) iterations and hit max_iter)."""
    n = 200
    edges = [(i, i + 1) for i in range(n - 1)]
    _run(spark, edges, list(range(n)))


def test_isolated_vertices(spark):
    _run(spark, [(0, 1)], [0, 1, 2, 3])


def test_two_cliques(spark):
    a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    b = [(i, j) for i in range(10, 14) for j in range(i + 1, 14)]
    _run(spark, a + b, list(range(14)))


def test_star(spark):
    _run(spark, [(0, i) for i in range(1, 30)], list(range(30)))
