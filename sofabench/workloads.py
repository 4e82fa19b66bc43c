"""Benchmark workloads: inputs made from a seed, one timed operation each,
and the gate every operation's output must pass.

Each operation is composed from the same public calls the repository's
own entry points make, so a change inside ``repro`` shows up here
without the benchmark changing:

* the Table 4 cells follow ``harness._run_sofa``: distributed first pass,
  θ selection, §4.2 cover pass, top-k pruning, reconstruction metrics;
* ``fig1-stream`` is the §6.1 base point at paper scale, fed through
  Structured Streaming into one driver-side engine with k-medians
  post-processing and finished with the Catalyst §4.1 assignment.

Seed 0 keeps the committed dataset seeds, so outputs are checked against
``results/cells.json`` and ``harness.run_cell``. Any other seed
regenerates graphs of the same shape with that seed. At every seed each
operation's output must equal the warm-up operation's bit for bit.
"""
from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import synth_data as sd
from repro.core.bmf import reconstruction_metrics
from repro.core.second_pass import (
    assign_left_biclustering_fast,
    assign_left_bmf_fast,
    prune_to_top_k,
)
from repro.core.sofa import SofaEngine, SofaParams, SofaResult, merge_center_states, sofa_pass
from repro.core.thresholds import LINE_SEARCH_THETAS, auto_theta_from_groups
from repro.eval import harness
from repro.eval.datasets import _SPECS, load_dataset
from repro.eval.memory import membership_bytes, sofa_memory_bytes
from repro.eval.quality import jaccard_quality, labels_to_clusters
from repro.spark.distributed_sofa import collect_partition_coresets
from repro.spark.second_pass_df import assign_left_biclustering_df, clusters_to_df
from repro.spark.structured import STREAM_SCHEMA, sofa_from_stream_dir, write_stream_files
from pyspark.sql.streaming import StreamingQueryListener
from tracer import EngineCounters, NullTracer, Tracer

DEFAULT_SEED = 0
NULL_TRACER = NullTracer()


class GateFailure(Exception):
    """An operation's output failed its check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GateFailure(what)


def _same_centers(a: Sequence, b: Sequence) -> bool:
    """Centers, weights and sketches equal, in order."""
    return len(a) == len(b) and all(
        np.array_equal(x.support, y.support)
        and x.weight == y.weight
        and x.sketch.total == y.sketch.total
        and x.sketch.to_tuples() == y.sketch.to_tuples()
        for x, y in zip(a, b)
    )


def _same_groups(a: SofaResult, b: SofaResult) -> bool:
    return len(a.groups) == len(b.groups) and all(
        x.member_centers == y.member_centers
        and x.total_weight == y.total_weight
        and x.sketch.to_tuples() == y.sketch.to_tuples()
        for x, y in zip(a.groups, b.groups)
    )


def _same_arrays(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _same_graph(a: sd.BipartiteGraph, b: sd.BipartiteGraph) -> bool:
    return (a.n_left, a.n_right) == (b.n_left, b.n_right) and _same_arrays(a.adj, b.adj)


def _check_weight(result: SofaResult, n: int) -> None:
    _require(sum(c.weight for c in result.centers) == n,
             f"total center weight {sum(c.weight for c in result.centers)} != |U| = {n}")


def _engine_metrics(c: EngineCounters) -> Dict[str, float]:
    return {
        "sofa.steps": c.steps,
        "sofa.push_s": c.push_s,
        "sofa.finalize_s": c.finalize_s,
        "distance.nearest_calls": c.nearest_calls,
        "distance.nearest_s": c.nearest_s,
        "distance.nearest_per_step": c.nearest_calls / c.steps if c.steps else 0.0,
        "mg.add_calls": c.mg_add_calls,
        "mg.merge_calls": c.mg_merge_calls,
        "mg.merge_s": c.mg_merge_s,
        "mg.trims": c.mg_trims,
        "kmedians.s": c.kmedians_s,
        "kmedians.points": c.kmedians_points,
        "kmedians.dense_cols": c.kmedians_dense_cols,
        "kmedians.dense_mb": c.kmedians_dense_mb,
    }


# Layer metrics a workload's operation does no work for read 0.
_NO_WORK = dict.fromkeys([
    "distributed_sofa.partition_pass_s", "distributed_sofa.coreset_rows",
    "distributed_sofa.partition_rows_skew", "distributed_sofa.partition_restarts_max",
    "distributed_sofa.partition_nearest_calls",
    "sofa.merge_s", "sofa.merge_restarts", "sofa.merge_final_lb",
    "thresholds.auto_theta_s", "thresholds.counters_scored",
    "second_pass.cover_s", "second_pass.cover_passes", "second_pass.candidates",
    "second_pass.memberships", "second_pass.cover_us_per_vertex",
    "bmf.metrics_s",
    "structured.batches", "structured.batch_ms_p50", "structured.overhead_s",
    "second_pass_df.bicluster_s",
], 0)


# -- Table 4 cells ------------------------------------------------------------
@dataclass
class CellOutput:
    gain: float
    recall: float
    theta: float
    memory_bytes: int
    memberships: List[List[int]]
    kept: List[np.ndarray]
    coreset_rows: int
    result: SofaResult


class CellWorkload:
    """One harness cell (dataset × sofa or sofa-auto × k=16) on a stand-in."""

    k = 16
    partitions = harness.SOFA_PARTITIONS

    def __init__(self, dataset: str, algorithm: str, spark, seed: int, root: str):
        self.dataset, self.algorithm = dataset, algorithm
        self.auto = algorithm == "sofa-auto"
        self.spark, self.seed, self.root = spark, seed, root
        self.spec = dict(_SPECS[dataset])
        if seed != DEFAULT_SEED:
            self.spec["seed"] = seed
        self.reference: Optional[CellOutput] = None

    # -- set-up ---------------------------------------------------------------
    def generate(self) -> None:
        self.graph = sd.planted_zipf_bipartite(**self.spec)
        self.params = harness.sofa_params_for(self.graph, self.k)
        self.edges = self.graph.n_edges

    def build_stream(self) -> None:
        self.stream = sd.to_spark_stream(self.spark, self.graph, num_partitions=self.partitions)

    def prepare(self) -> None:
        """No reference beyond the warm-up; checked against the committed
        cell at the default seed."""

    def warmup(self) -> CellOutput:
        out = self.op(NULL_TRACER)
        self.reference = out
        return out

    def check_reference(self, out: CellOutput) -> None:
        """Default seed only: the composition equals ``harness.run_cell``
        and the committed ``results/cells.json`` row, exactly."""
        if self.seed != DEFAULT_SEED:
            return
        _require(_same_graph(self.graph, load_dataset(self.dataset)),
                 "default-seed graph differs from load_dataset")
        harness.clear_pass_cache()
        try:
            cell = harness.run_cell(self.spark, self.dataset, self.algorithm, self.k)
        finally:
            harness.clear_pass_cache()
        mine = (out.gain, out.recall, out.memory_bytes, f"theta={out.theta}")
        _require((cell.gain, cell.recall, cell.memory_bytes, cell.note) == mine,
                 f"composition {mine} differs from harness.run_cell {cell}")
        with open(os.path.join(self.root, "results", "cells.json")) as f:
            rows = json.load(f)
        row = next(r for r in rows if (r["dataset"], r["algorithm"], r["k"])
                   == (self.dataset, self.algorithm, self.k))
        _require((row["gain"], row["recall"], row["memory_bytes"], row["note"]) == mine,
                 f"composition {mine} differs from results/cells.json {row}")

    # -- the operation ----------------------------------------------------------
    def op(self, tr) -> CellOutput:
        g, k = self.graph, self.k
        with tr.span("collect_partition_coresets"):
            states = collect_partition_coresets(self.stream, self.params)
        coreset_rows = len(states)
        # distributed_sofa's merge order: heaviest coreset centers first
        states.sort(key=lambda s: -s.weight)
        with tr.span("merge_center_states"):
            result = merge_center_states(states, self.params, m_hint=g.n_left)
        if self.auto:
            with tr.span("auto_theta_from_groups"):
                theta, _, _ = auto_theta_from_groups(result.groups)
            thetas: Sequence[float] = (theta,)
        else:
            thetas = LINE_SEARCH_THETAS
        best = (-np.inf, -np.inf, None, [], [])
        for th in thetas:
            with tr.span("evaluate_theta"):
                with tr.span("right_cluster"):
                    candidates = [gr.right_cluster(th).tolist() for gr in result.groups]
                stream = [a.tolist() for a in g.adj]
                with tr.span("assign_left_bmf_fast"):
                    bmf = assign_left_bmf_fast(stream, candidates)
                with tr.span("prune_to_top_k"):
                    kept, kept_idx = prune_to_top_k(candidates, bmf.cluster_scores, k)
                remap = {old: new for new, old in enumerate(kept_idx)}
                memberships = [[remap[c] for c in mem if c in remap]
                               for mem in bmf.memberships]
                with tr.span("reconstruction_metrics"):
                    met = reconstruction_metrics(g.adj, memberships, [c.tolist() for c in kept])
            if met.relative_hamming_gain > best[0]:
                best = (met.relative_hamming_gain, met.recall, th, memberships, kept)
        gain, recall, theta, memberships, kept = best
        return CellOutput(
            gain=float(gain), recall=float(recall), theta=theta,
            memory_bytes=result.state_bytes() + membership_bytes(memberships),
            memberships=memberships, kept=kept, coreset_rows=coreset_rows, result=result,
        )

    def check(self, out: CellOutput) -> None:
        g = self.graph
        _check_weight(out.result, g.n_left)
        _require(len(out.memberships) == g.n_left, "one membership list per vertex")
        _require(0 < len(out.kept) <= self.k, f"{len(out.kept)} clusters kept, k = {self.k}")
        _require(out.gain > 0, f"non-positive gain {out.gain}")
        ref = self.reference
        _require((out.gain, out.recall, out.theta, out.memory_bytes)
                 == (ref.gain, ref.recall, ref.theta, ref.memory_bytes),
                 f"gain/recall/theta/memory {out.gain}/{out.recall}/{out.theta}/"
                 f"{out.memory_bytes} differ from the warm-up's")
        _require(out.memberships == ref.memberships, "memberships differ from the warm-up's")
        _require(_same_arrays(out.kept, ref.kept), "kept clusters differ from the warm-up's")
        _require(_same_centers(out.result.centers, ref.result.centers),
                 "centers differ from the warm-up's")
        _require(_same_groups(out.result, ref.result), "groups differ from the warm-up's")

    # -- metrics ----------------------------------------------------------------
    def output_metrics(self, out: CellOutput) -> Dict[str, float]:
        g = self.graph
        left: List[List[int]] = [[] for _ in out.kept]
        for u, mem in enumerate(out.memberships):
            for c in mem:
                left[c].append(u)
        return {
            "recall": out.recall,
            "q_left": jaccard_quality(g.left_clusters, [c for c in left if c]),
            "q_right": jaccard_quality(g.right_clusters, out.kept),
            "accounted_mem_kb": out.memory_bytes / 1024,
        }

    def traced_run(self, tracer: Tracer, counters: EngineCounters,
                   log) -> Tuple[CellOutput, Dict[str, float]]:
        with counters.installed(), tracer.span("op"):
            out = self.op(tracer)
        self.check(out)
        parts = self.replay()
        for p in parts:
            log("replay partition {partition}: rows={rows} restarts={restarts} "
                "centers={centers} nearest_calls={nearest_calls}".format(**p))
        rows = [p["rows"] for p in parts] + [0] * (self.partitions - len(parts))
        groups = out.result.groups
        passes = tracer.count("assign_left_bmf_fast")
        cover_s = tracer.total("assign_left_bmf_fast")
        m = dict(_NO_WORK)
        m.update(_engine_metrics(counters))
        m.update({
            "distributed_sofa.partition_pass_s": tracer.total("collect_partition_coresets"),
            "distributed_sofa.coreset_rows": out.coreset_rows,
            "distributed_sofa.partition_rows_skew": max(rows) / (sum(rows) / len(rows)),
            "distributed_sofa.partition_restarts_max": max(p["restarts"] for p in parts),
            "distributed_sofa.partition_nearest_calls": sum(p["nearest_calls"] for p in parts),
            "sofa.merge_s": tracer.total("merge_center_states"),
            "sofa.merge_restarts": out.result.n_restarts,
            "sofa.merge_final_lb": out.result.final_lb,
            "sofa.centers": len(out.result.centers),
            "thresholds.auto_theta_s": tracer.total("auto_theta_from_groups"),
            "thresholds.counters_scored": sum(
                len(gr.sketch.counters) for gr in groups if gr.total_weight > 0
            ) if self.auto else 0,
            "second_pass.cover_s": cover_s,
            "second_pass.cover_passes": passes,
            "second_pass.candidates": passes * len(groups),
            "second_pass.memberships": sum(len(mem) for mem in out.memberships),
            "second_pass.cover_us_per_vertex": 1e6 * cover_s / (passes * self.graph.n_left),
            "bmf.metrics_s": tracer.total("reconstruction_metrics"),
        })
        return out, m

    def replay(self) -> List[Dict[str, int]]:
        """Replay each partition's rows through a driver-side engine with
        the counters on, in the order the partition runner uses, and
        require the replayed centers to equal Spark's coreset."""
        from pyspark.sql import functions as F

        by_pid: Dict[int, List[int]] = {}
        for r in self.stream.select("u", F.spark_partition_id().alias("pid")).collect():
            by_pid.setdefault(int(r["pid"]), []).append(int(r["u"]))
        spark_coreset = collect_partition_coresets(self.stream, self.params)
        replayed, parts = [], []
        for pid in sorted(by_pid):
            us = sorted(by_pid[pid])
            counters = EngineCounters()
            with counters.installed():
                eng = SofaEngine(self.params, m_hint=len(us))
                for u in us:
                    eng.push([int(v) for v in self.graph.adj[u]])
            replayed.extend(eng.centers)
            parts.append(dict(partition=pid, rows=len(us), restarts=eng.n_restarts,
                              centers=len(eng.centers), nearest_calls=counters.nearest_calls))
        _require(_same_centers(replayed, spark_coreset),
                 "replayed partition centers differ from the coreset Spark returned")
        return parts

    def describe(self) -> Dict[str, object]:
        p = self.params
        return {
            "dataset": self.dataset, "algorithm": self.algorithm, "k": self.k,
            "graph_seed": self.spec["seed"], "n_left": self.graph.n_left,
            "n_right": self.graph.n_right, "edges": self.edges,
            "c_max": p.c_max, "mg_capacity": p.mg_capacity, "alpha": p.alpha,
            "thetas": "auto" if self.auto else list(LINE_SEARCH_THETAS),
            "partitions": self.partitions,
        }


# -- Fig. 1 base point over Structured Streaming -------------------------------
@dataclass
class StreamOutput:
    result: SofaResult
    right: List[np.ndarray]
    labels: np.ndarray


class _ProgressListener(StreamingQueryListener):
    """Collects the per-batch durations of the streaming query."""

    def __init__(self):
        self.batch_ms: Dict[int, float] = {}
        self.done = threading.Event()

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        p = event.progress
        self.batch_ms[p.batchId] = float(p.durationMs.get("triggerExecution", 0))

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        self.done.set()


class StreamWorkload:
    """§6.1 Fig. 1 base point (n=8000, k=50, ℓ=200, r=30, p=0.7, 20
    expected noise edges) with sofa-8k (c_max=400, 200 counters), θ=0.5."""

    k, ell, n_right, r, p, noise_deg = 50, 200, 8000, 30, 0.7, 20
    c_max, counters, theta = 400, 200, 0.5

    def __init__(self, spark, seed: int, workdir: str):
        self.spark, self.seed, self.workdir = spark, seed, workdir
        self.params = SofaParams(k=self.k, c_max=self.c_max, mg_capacity=self.counters, seed=0)
        self._n_dirs = 0
        self.reference: Optional[StreamOutput] = None

    def _fresh_dir(self, kind: str) -> str:
        self._n_dirs += 1
        return os.path.join(self.workdir, f"{kind}-{self._n_dirs}")

    # -- set-up ---------------------------------------------------------------
    def generate(self) -> None:
        q = sd.noise_q_for_expected_degree(self.noise_deg, self.n_right, self.r)
        self.graph = sd.bipartite_sbm(k=self.k, ell=self.ell, n_right=self.n_right,
                                      r=self.r, p=self.p, q=q, seed=self.seed)
        self.edges = self.graph.n_edges

    def build_stream(self) -> None:
        d = self._fresh_dir("stream")
        n_files = write_stream_files(self.graph, d)
        # the file source orders files by modification time (millisecond
        # resolution): space them a second apart so arrival order is file order
        base = int(time.time()) - n_files
        for i in range(n_files):
            path = os.path.join(d, f"batch-{i:06d}.json")
            os.utime(path, (base + i, base + i))
        self.stream_dir = d
        self.stream_df = self.spark.read.schema(STREAM_SCHEMA).json(d)

    def prepare(self) -> None:
        """The reference first pass: ``sofa_pass`` over the same order."""
        self.reference_pass = sofa_pass(
            [a.tolist() for a in self.graph.adj],
            dataclasses.replace(self.params, skip_kmedians=True),
            m_hint=self.graph.n_left,
        )

    def warmup(self) -> StreamOutput:
        out = self.op(NULL_TRACER)
        self.reference = out
        return out

    def check_reference(self, out: StreamOutput) -> None:
        """The streamed first pass equals ``sofa_pass``; the Catalyst
        assignment equals the sequential §4.1 assignment."""
        ref = self.reference_pass
        _require(_same_centers(out.result.centers, ref.centers),
                 "streamed centers differ from sofa_pass over the same order")
        _require((out.result.n_restarts, out.result.final_lb) == (ref.n_restarts, ref.final_lb),
                 "streamed restarts / final LB differ from sofa_pass")
        seq = assign_left_biclustering_fast([a.tolist() for a in self.graph.adj],
                                            [c.tolist() for c in out.right])
        _require(np.array_equal(out.labels, np.asarray(seq, dtype=np.int64)),
                 "Catalyst assignment differs from the sequential §4.1 assignment")

    # -- the operation ----------------------------------------------------------
    def op(self, tr) -> StreamOutput:
        ckpt = self._fresh_dir("checkpoint")
        with tr.span("sofa_from_stream_dir"):
            result = sofa_from_stream_dir(self.spark, self.stream_dir, self.params,
                                          m_hint=self.graph.n_left, checkpoint_dir=ckpt)
        with tr.span("right_clusters"):
            right = result.right_clusters(self.theta)
        with tr.span("assign_left_biclustering_df"):
            clusters_df = clusters_to_df(self.spark, [c.tolist() for c in right])
            pdf = assign_left_biclustering_df(self.stream_df, clusters_df).toPandas()
        pdf = pdf.sort_values("u")
        _require(np.array_equal(pdf["u"].to_numpy(), np.arange(self.graph.n_left)),
                 "Catalyst assignment does not hold every vertex exactly once")
        return StreamOutput(result=result, right=right,
                            labels=pdf["cluster"].to_numpy(dtype=np.int64))

    def check(self, out: StreamOutput) -> None:
        g = self.graph
        _require(out.result.n_processed == g.n_left,
                 f"n_processed {out.result.n_processed} != |U| = {g.n_left}")
        _check_weight(out.result, g.n_left)
        _require(len(out.right) > 0, "no non-empty right cluster")
        _require(bool(((out.labels >= 0) & (out.labels < len(out.right))).all()),
                 "label out of range")
        ref = self.reference
        _require(_same_centers(out.result.centers, ref.result.centers),
                 "centers differ from the warm-up's")
        _require(_same_groups(out.result, ref.result), "groups differ from the warm-up's")
        _require(_same_arrays(out.right, ref.right), "right clusters differ from the warm-up's")
        _require(np.array_equal(out.labels, ref.labels), "labels differ from the warm-up's")

    # -- metrics ----------------------------------------------------------------
    def output_metrics(self, out: StreamOutput) -> Dict[str, float]:
        g = self.graph
        memberships = [[int(l)] for l in out.labels]
        met = reconstruction_metrics(g.adj, memberships, [c.tolist() for c in out.right])
        return {
            "recall": met.recall,
            "q_left": jaccard_quality(g.left_clusters, labels_to_clusters(out.labels)),
            "q_right": jaccard_quality(g.right_clusters, out.right),
            "accounted_mem_kb": sofa_memory_bytes(out.result, memberships) / 1024,
        }

    def traced_run(self, tracer: Tracer, counters: EngineCounters,
                   log) -> Tuple[StreamOutput, Dict[str, float]]:
        progress = _ProgressListener()
        self.spark.streams.addListener(progress)
        try:
            with counters.installed(), tracer.span("op"):
                out = self.op(tracer)
            if not progress.done.wait(timeout=30):
                raise RuntimeError("no termination event from the streaming query")
        finally:
            self.spark.streams.removeListener(progress)
        self.check(out)
        stream_s = tracer.total("sofa_from_stream_dir")
        m = dict(_NO_WORK)
        m.update(_engine_metrics(counters))
        m.update({
            "sofa.centers": len(out.result.centers),
            "structured.batches": len(progress.batch_ms),
            "structured.batch_ms_p50": median(progress.batch_ms.values()),
            "structured.overhead_s": stream_s - counters.push_s - counters.finalize_s,
            "second_pass_df.bicluster_s": tracer.total("assign_left_biclustering_df"),
        })
        return out, m

    def describe(self) -> Dict[str, object]:
        return {
            "graph": "bipartite_sbm", "graph_seed": self.seed,
            "n_left": self.graph.n_left, "n_right": self.n_right, "edges": self.edges,
            "k": self.k, "ell": self.ell, "r": self.r, "p": self.p,
            "expected_noise_edges": self.noise_deg, "c_max": self.c_max,
            "mg_capacity": self.counters, "theta": self.theta,
            "stream_files": len(os.listdir(self.stream_dir)),
        }


def make(name: str, spark, seed: int, root: str, workdir: str):
    if name == "movie-sofa-auto":
        return CellWorkload("movie", "sofa-auto", spark, seed, root)
    if name == "wiki-sofa":
        return CellWorkload("wiki", "sofa", spark, seed, root)
    if name == "fig1-stream":
        return StreamWorkload(spark, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
