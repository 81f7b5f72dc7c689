"""Smoke tests of the table-reproduction jobs at toy scale."""
from __future__ import annotations

import numpy as np
import pytest

from jobs.fig2_rounds import good_edges_table, rounds_table
from jobs.fig9_scaling import scaling_rows
from jobs.table1_graph_stats import table1_rows
from jobs.table2_quality import TERAHAC_SETTINGS, evaluate_dataset
from jobs.table3_webquery import run_webquery
from repro.synth_data import random_weighted_graph


def test_table1_rows():
    rows = table1_rows(rmat_scales=(7,), wq_n=1000)
    names = [r["name"] for r in rows]
    assert len(rows) == 6 and names[0] == "rMAT-7"
    assert any("web-query" in n for n in names)
    assert {r["name"].split("-knn")[0] for r in rows[2:]} == {
        "iris", "wine", "digits", "faces"
    }
    for r in rows:
        assert r["n"] > 0 and r["m"] > 0 and r["avg_deg"] > 0


def test_table2_cells_on_iris():
    cells = evaluate_dataset("iris", scc_rounds=[5, 25])
    cols = {s[0] for s in TERAHAC_SETTINGS} | {"SCC-5", "SCC-25", "Sci-Avg", "DBSCAN"}
    assert set(cells) == cols
    for label, _, _ in TERAHAC_SETTINGS:
        c = cells[label]
        assert 0 <= c.ari <= 1 and 0 <= c.nmi <= 1 and 0 <= c.purity <= 1
        assert c.dasgupta > 0
    # SCC/DBSCAN report no tree measures, as in the paper
    assert cells["SCC-5"].purity is None and cells["DBSCAN"].dasgupta is None
    # the headline Table-2 relation: TeraHAC default >= SCC best setting
    th = cells["TeraHAC e=.1 t=.01"].ari
    assert th >= max(cells["SCC-5"].ari, cells["SCC-25"].ari) - 0.02


def test_fig2_rounds_table():
    edges = random_weighted_graph(n=100, avg_deg=5, seed=3)
    r = rounds_table(edges, 100, t=0.01)
    assert set(r) == {"TeraHAC", "OptimizedRAC", "ParHAC", "RAC"}
    assert r["TeraHAC"] <= r["OptimizedRAC"] <= r["RAC"]


def test_fig15_good_edges_table():
    edges = random_weighted_graph(n=150, avg_deg=5, seed=3)
    g = good_edges_table(edges, 150, t=0.01)
    assert set(g) == {0.0, 0.1}
    assert g[0.1][0] > g[0.0][0]  # eps widens the mergeable set


def test_table3_job_tiny(spark):
    out = run_webquery(
        spark, n=500, scc_high=4, scc_low=2, collect_stats=False, seed=3
    )
    assert out["terahac_s"] > 0 and out["scc_high_s"] > 0
    assert 1 <= out["terahac_rounds"] <= 17  # the paper's max over all datasets
    # PR entries well-formed
    for _, pr in out["terahac_pr"]:
        assert 0 <= pr.precision <= 1 and 0 <= pr.recall <= 1
    # at a high flatten threshold precision should be near-perfect
    hi = out["terahac_pr"][0][1]
    assert hi.precision > 0.9


def test_fig9_scaling_job_tiny(spark):
    (row,) = scaling_rows(spark, rmat_scales=(7,), scc_rounds=(2,))
    assert row["scale"] == 7 and row["n"] > 0 and row["m"] > 0
    assert row["terahac_s"] > 0 and row["scc2_s"] > 0
    assert 1 <= row["terahac_rounds"] <= 17  # the paper's max over all datasets
