"""DataFrame primitives of the graph substrate, checked against DuckDB
SQL through the oracle — a wrong join or aggregation in these breaks
every algorithm built on top."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.edges import (
    canonicalize,
    contract,
    degrees,
    init_vertices,
    num_heavy_edges,
    prune_vertices,
    w_max_per_vertex,
    with_weights,
)
from repro.graphs.weights import degree_log_weights
from repro.oracle import assert_equivalent
from repro.synth_data import edges_to_spark, random_weighted_graph


@pytest.fixture(scope="module")
def graph(spark):
    edges = random_weighted_graph(n=80, avg_deg=5, seed=11)
    raw = edges_to_spark(spark, edges).select(
        "u", "v", F.col("w").alias("raw")
    )
    e = canonicalize(raw)
    v = init_vertices(spark, e)
    return e, v, raw.toPandas()


def test_canonicalize_oracle(spark, graph):
    e, _, pdf = graph
    assert_equivalent(
        e,
        """
        SELECT least(u, v) AS u, greatest(u, v) AS v, sum(raw) AS raw
        FROM raw WHERE u <> v GROUP BY 1, 2
        """,
        raw=pdf,
    )


def test_canonicalize_merges_parallel_edges(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"u": [1, 2, 3, 3], "v": [2, 1, 3, 4], "raw": [0.5, 0.25, 9.0, 1.0]})
    )
    got = {(r.u, r.v): r.raw for r in canonicalize(df).collect()}
    assert got == {(1, 2): 0.75, (3, 4): 1.0}


def test_with_weights_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v).select("u", "v", "w")
    assert_equivalent(
        ew,
        """
        SELECT e.u, e.v, e.raw / (vu.size * vv.size) AS w
        FROM e JOIN v vu ON e.u = vu.id JOIN v vv ON e.v = vv.id
        """,
        e=e,
        v=v,
    )


def test_w_max_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v)
    assert_equivalent(
        w_max_per_vertex(ew),
        """
        WITH sym AS (
          SELECT u AS id, w FROM ew UNION ALL SELECT v AS id, w FROM ew
        )
        SELECT id, max(w) AS wmax FROM sym GROUP BY id
        """,
        ew=ew.select("u", "v", "w"),
    )


def test_degrees_oracle(spark, graph):
    e, _, _ = graph
    assert_equivalent(
        degrees(e),
        """
        WITH sym AS (SELECT u AS id FROM e UNION ALL SELECT v AS id FROM e)
        SELECT id, count(*) AS deg FROM sym GROUP BY id
        """,
        e=e,
    )


def test_num_heavy_edges_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v)
    got = num_heavy_edges(ew, 0.5)
    expect = ew.filter(F.col("w") >= 0.5).count()
    assert got == expect
    import duckdb

    con = duckdb.connect()
    con.register("ew", ew.select("w").toPandas())
    assert got == con.execute("SELECT count(*) FROM ew WHERE w >= 0.5").fetchone()[0]
    con.close()


def test_contract_oracle(spark, graph):
    e, _, _ = graph
    # map every vertex to id // 10 (a coarse partition)
    ids = e.select(F.col("u").alias("old_id")).unionByName(
        e.select(F.col("v").alias("old_id"))
    ).distinct()
    mapping = ids.select("old_id", (F.col("old_id") % 7).alias("new_id"))
    got = contract(e, mapping)
    assert_equivalent(
        got,
        """
        SELECT least(u % 7, v % 7) AS u, greatest(u % 7, v % 7) AS v,
               sum(raw) AS raw
        FROM e WHERE (u % 7) <> (v % 7) GROUP BY 1, 2
        """,
        e=e,
    )


def test_contract_partial_mapping(spark):
    """Vertices absent from the mapping keep their id (a partial mapping)."""
    e = spark.createDataFrame(
        pd.DataFrame({"u": [0, 1], "v": [1, 2], "raw": [1.0, 2.0]})
    )
    mapping = spark.createDataFrame(
        pd.DataFrame({"old_id": [1], "new_id": [0]})
    )
    got = {(r.u, r.v): r.raw for r in contract(e, mapping).collect()}
    assert got == {(0, 2): 2.0}  # 0-1 became a self loop and vanished


def test_prune_vertices_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v)
    ke, kv = prune_vertices(ew, v, 0.4)
    import duckdb

    con = duckdb.connect()
    con.register("ew", ew.select("u", "v", "w", "raw").toPandas())
    keep = set(
        con.execute(
            """
            WITH sym AS (SELECT u AS id, w FROM ew UNION ALL
                         SELECT v AS id, w FROM ew)
            SELECT id FROM sym GROUP BY id HAVING max(w) >= 0.4
            """
        ).fetchdf()["id"]
    )
    con.close()
    assert set(r.id for r in kv.collect()) == keep
    for r in ke.collect():
        assert r.u in keep and r.v in keep
    # no surviving-vertex edge lost
    assert ke.count() == ew.filter(
        F.col("u").isin(list(keep)) & F.col("v").isin(list(keep))
    ).count()


def test_degree_log_weights_oracle(spark):
    pdf = pd.DataFrame({"u": [0, 1, 0, 2], "v": [1, 2, 3, 3]})
    e = spark.createDataFrame(pdf)
    got = degree_log_weights(e)
    assert_equivalent(
        got,
        """
        WITH deg AS (
          SELECT id, count(*) AS d FROM (
            SELECT u AS id FROM e UNION ALL SELECT v AS id FROM e
          ) GROUP BY id
        )
        SELECT e.u, e.v, 1.0 / ln(du.d + dv.d) AS raw
        FROM e JOIN deg du ON e.u = du.id JOIN deg dv ON e.v = dv.id
        """,
        e=e,
    )


def test_init_vertices(spark, graph):
    e, v, _ = graph
    rows = v.collect()
    ids = {r.id for r in rows}
    expect = {r.u for r in e.collect()} | {r.v for r in e.collect()}
    assert ids == expect
    assert all(r.size == 1 and r.m == float("inf") for r in rows)
