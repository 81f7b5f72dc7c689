"""Tests of the benchmark itself: gate, span arithmetic, metric names.

    python3 -m pytest hacbench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hacbench import run, workloads  # noqa: E402
from hacbench.gate import replay, same_merges  # noqa: E402
from hacbench.spans import Span, inclusive_jobs, per_call, self_times  # noqa: E402
from repro.core.goodness import merge_id  # noqa: E402
from repro.core.subgraph_hac import Merge  # noqa: E402
from repro.core.terahac_local import terahac_local  # noqa: E402
from repro.synth_data import random_weighted_graph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EPS, T = 0.1, 0.05


@pytest.fixture(scope="module")
def graph_and_result():
    edges = random_weighted_graph(n=80, avg_deg=5, seed=3)
    return edges, terahac_local(edges, 80, eps=EPS, t=T)


def _altered(result, i: int, merge: Merge):
    merges = list(result.dendrogram.merges)
    merges[i] = merge
    dendro = dataclasses.replace(result.dendrogram, merges=merges)
    return dataclasses.replace(result, dendrogram=dendro)


def test_gate_passes_engine_output(graph_and_result):
    edges, res = graph_and_result
    assert res.rounds >= 2
    assert replay(edges, 80, res, EPS, T) is None
    assert same_merges(res, res) is None


def test_gate_rejects_altered_similarity(graph_and_result):
    edges, res = graph_and_result
    mg = res.dendrogram.merges[-1]
    bad = _altered(res, len(res.dendrogram.merges) - 1, dataclasses.replace(mg, similarity=mg.similarity * 1.01))
    assert "similarity" in replay(edges, 80, bad, EPS, T)
    assert same_merges(bad, res) is not None
    assert same_merges(bad, res, rel_tol=1e-9) is not None


def test_gate_rejects_a_merge_that_is_not_good(graph_and_result):
    edges, res = graph_and_result
    first = res.dendrogram.merges[0]
    u, n = first.left, 80
    # Merge u with its lightest neighbour instead: adjacent, correctly
    # labelled, but far from (1+eps)-good.
    nbrs = {b * (n + 1): w for a, b, w in edges if a * (n + 1) == u}
    nbrs.update({a * (n + 1): w for a, b, w in edges if b * (n + 1) == u})
    x = min(nbrs, key=nbrs.get)
    assert max(nbrs.values()) > (1 + EPS) * nbrs[x]
    bad = _altered(res, 0, Merge(merge_id(u, x, n), u, x, nbrs[x]))
    assert "goodness" in replay(edges, n, bad, EPS, T)
    assert same_merges(bad, res, rel_tol=1e-9) is not None


def test_gate_rejects_missing_merges(graph_and_result):
    edges, res = graph_and_result
    last = res.stats[-1]
    merges = res.dendrogram.merges[: -last.n_merges]
    stats = res.stats[:-1]
    cut = dataclasses.replace(
        res, dendrogram=dataclasses.replace(res.dendrogram, merges=merges), stats=stats, rounds=res.rounds - 1
    )
    assert "weight >= t remain" in replay(edges, 80, cut, EPS, T)


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, 7, "root", 0.0, 10.0, jobs=1),
        Span(1, 0, 7, "a", 1.0, 4.0, jobs=2),
        Span(2, 1, 7, "a.leaf", 2.0, 3.0, jobs=3),
        Span(3, 0, 7, "b", 3.0, 6.0),  # overlaps a: covered once
        Span(4, 0, 7, "c", 9.0, 12.0, jobs=4),  # runs past root: clipped
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0}
    assert inclusive_jobs(spans) == {0: 10, 1: 5, 2: 3, 3: 0, 4: 4}
    call = per_call(spans)[7]
    assert call["root.s"] == 10.0 and call["root.self.s"] == 4.0
    assert call["root.jobs"] == 10 and call["root.self.jobs"] == 1
    assert call["a.jobs"] == 5 and call["a.calls"] == 1


def test_per_layer_names_are_declared():
    declared = {d["name"] for d in SPEC["per_layer"]}
    out = {"trace.overhead_s": 0.0}
    assert set(run.per_layer(out, 0, 1)) == declared
    with pytest.raises(ValueError):
        run.emit(SPEC["per_layer"], {"undeclared": 1.0})


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declaration(trace, monkeypatch, capsys):
    """A shrunken local workload through ``main``: every printed metric
    is declared with its unit, and every declared metric is printed."""
    w = workloads.WORKLOADS["rmat-local-split"]
    monkeypatch.setitem(workloads.WORKLOADS, w.name, dataclasses.replace(w, pool=2, max_subgraph_edges=60))
    monkeypatch.setattr(workloads, "RMAT_SCALE", 5)
    for var in ("TMPDIR", "REPRO_CKPT_DIR"):
        monkeypatch.setenv(var, tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    assert run.main(["--workload", w.name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {d["name"]: d["unit"] for d in declared}


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hacbench", tmp_path / "hacbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wq-spark", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
