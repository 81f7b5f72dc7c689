"""DataFrame primitives of the graph substrate, checked against DuckDB
SQL through the oracle — a wrong join or aggregation in these breaks
every algorithm built on top."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.edges import (
    canonicalize,
    contract_reweight,
    degrees,
    prune,
    singletons,
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
    return canonicalize(raw), singletons(raw), raw.toPandas()


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


def test_contract_reweight_prune_oracle(spark, graph):
    """TeraHAC's fused round tail (contract, reweight, prune) against
    DuckDB, under a mapping that merges each even id with the next odd
    one. 100 and 101 merge into a vertex with no edge left, and 102
    hangs off 0 by an edge too light to keep it."""
    e, _, _ = graph
    extra = spark.createDataFrame(
        pd.DataFrame({"u": [100, 0], "v": [101, 102], "raw": [0.9, 0.01]})
    )
    e = e.unionByName(extra)
    ew = singletons(e)
    ids = ew.select(F.col("u").alias("old_id")).unionByName(
        ew.select(F.col("v").alias("old_id"))
    ).distinct()
    pairs = ids.select("old_id", (F.col("old_id") - F.col("old_id") % 2).alias("new_id"))
    mapping = pairs.join(pairs.groupBy("new_id").agg(F.count("*").alias("size")), "new_id").select(
        "old_id", "new_id", "size", (0.5 + F.col("new_id") % 7 / 10).alias("m")
    )
    threshold = 0.25
    contracted = contract_reweight(ew, mapping)
    got = prune(contracted, threshold)
    assert_equivalent(
        got,
        f"""
        WITH c AS (
          SELECT a.new_id AS a, b.new_id AS b, e.raw, a.size AS sa,
                 b.size AS sb, a.m AS ma, b.m AS mb
          FROM ew e JOIN mp a ON e.u = a.old_id JOIN mp b ON e.v = b.old_id
          WHERE a.new_id <> b.new_id
        ), g AS (
          SELECT least(a, b) AS u, greatest(a, b) AS v,
                 CASE WHEN a < b THEN sa ELSE sb END AS su,
                 CASE WHEN a < b THEN sb ELSE sa END AS sv,
                 CASE WHEN a < b THEN ma ELSE mb END AS mu,
                 CASE WHEN a < b THEN mb ELSE ma END AS mv,
                 sum(raw) AS raw
          FROM c GROUP BY 1, 2, 3, 4, 5, 6
        ), gw AS (
          SELECT *, raw / (su * sv) AS w FROM g
        ), wm AS (
          SELECT id, max(w) AS wmax FROM (
            SELECT u AS id, w FROM gw UNION ALL SELECT v AS id, w FROM gw
          ) GROUP BY id
        )
        SELECT gw.*, (a.wmax = gw.w)::BIGINT + (b.wmax = gw.w)::BIGINT AS heads,
               a.wmax AS wmu, b.wmax AS wmv
        FROM gw JOIN wm a ON gw.u = a.id JOIN wm b ON gw.v = b.id
        WHERE a.wmax >= {threshold} AND b.wmax >= {threshold}
        """,
        ew=ew,
        mp=mapping,
    )

    def ends(df):
        return {x for r in df.select("u", "v").collect() for x in r}

    before, after = ends(contracted), ends(got)
    assert 100 not in before and 102 in before and 102 not in after
    assert 0 < len(after) < len(before) - 1  # more than 102 is pruned
    assert got.agg(F.sum("heads")).first()[0] == len(after)


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
