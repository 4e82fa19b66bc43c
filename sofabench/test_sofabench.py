"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest sofabench -q``.
The unit tests take seconds; the end-to-end tests start Spark and run
each workload once (a few minutes in all).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import EngineCounters, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
RUN_S_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "run_s")

# the public calls each workload's operation must be traced around
SPANS = {
    "movie-sofa-auto": {"collect_partition_coresets", "merge_center_states",
                        "auto_theta_from_groups", "assign_left_bmf_fast",
                        "prune_to_top_k", "reconstruction_metrics"},
    "fig1-stream": {"sofa_from_stream_dir", "assign_left_biclustering_df"},
}


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("op"):          # 0 .. 10
        with tr.span("a"):       # 1 .. 3
            pass
        with tr.span("b"):       # 4 .. 7
            pass
    assert tr.self_times() == [5.0, 2.0, 3.0]
    agg = tr.by_name()
    assert agg["op"] == {"count": 1, "total_s": 10.0, "self_s": 5.0}
    assert [s["parent"] for s in tr.to_json()] == [None, 0, 0]


def test_counters_leave_outputs_unchanged_and_restore_methods():
    from repro import synth_data as sd
    from repro.core import sofa as sofa_mod
    from repro.core.distance import CenterIndex
    from repro.core.mg import MisraGries
    from repro.core.sofa import SofaEngine, SofaParams, sofa_pass

    g = sd.bipartite_sbm(k=4, ell=30, n_right=200, r=12, p=0.7, q=0.02, seed=3)
    stream = [a.tolist() for a in g.adj]
    params = SofaParams(k=4, c_max=20, mg_capacity=16, seed=0)
    originals = (CenterIndex.nearest, CenterIndex.add, MisraGries.add, MisraGries.merge,
                 SofaEngine.push, SofaEngine.push_state, SofaEngine.finalize, sofa_mod.kmedians)
    plain = sofa_pass(stream, params, m_hint=g.n_left)
    c = EngineCounters()
    with c.installed():
        traced = sofa_pass(stream, params, m_hint=g.n_left)
    assert (CenterIndex.nearest, CenterIndex.add, MisraGries.add, MisraGries.merge,
            SofaEngine.push, SofaEngine.push_state, SofaEngine.finalize,
            sofa_mod.kmedians) == originals
    assert [x.support.tolist() for x in traced.centers] == [x.support.tolist() for x in plain.centers]
    assert [x.weight for x in traced.centers] == [x.weight for x in plain.centers]
    assert [gr.member_centers for gr in traced.groups] == [gr.member_centers for gr in plain.groups]
    assert c.pushes == g.n_left
    assert c.mg_add_calls == g.n_edges
    # every step opens a center or merges the item into its nearest one
    assert c.steps >= g.n_left
    assert c.steps == c.index_adds + (c.mg_merge_calls - _postprocess_merges(traced))
    assert c.nearest_calls >= c.steps - c.index_adds
    assert c.kmedians_calls == 1 and c.kmedians_points == len(traced.centers)
    assert c.finalize_calls == 1


def _postprocess_merges(result) -> int:
    """Sketch merges the post-processing makes: one per extra group member."""
    return sum(len(gr.member_centers) - 1 for gr in result.groups)


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "sofabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "sofabench/run.py", "--workload", "fig1-stream",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric_and_span(workload):
    p = _run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"])
    assert p.returncode == 0, p.stderr[-4000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_s"]["unit"] == "s"
    with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed0.json")) as f:
        trace = json.load(f)
    spans = trace["spans"]
    assert SPANS[workload] <= {s["name"] for s in spans}
    root = next(s for s in spans if s["name"] == "op")
    wall = root["end"] - root["start"]
    # stage self-times add up to the operation's wall time ...
    assert sum(s["self_s"] for s in spans) == pytest.approx(wall, rel=1e-6)
    # ... and the stages account for all of it but the bound
    assert root["self_s"] / wall <= RUN_S_BOUND
    assert metrics["trace.unaccounted_share"]["value"] <= RUN_S_BOUND


def test_untraced_run_reports_every_end_to_end_metric_at_another_seed():
    workload = SPEC["workloads"][0]["name"]
    p = _run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"])
    assert p.returncode == 0, p.stderr[-4000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_wiki_sofa_cell_matches_committed_result():
    """The cell not listed in BENCHMARK.json still passes its check: at
    seed 0 it equals harness.run_cell and results/cells.json."""
    p = _run(["--workload", "wiki-sofa", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert p.returncode == 0, p.stderr[-4000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
