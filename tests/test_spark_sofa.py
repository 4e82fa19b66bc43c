"""Tests for the distributed SOFA operator and Structured Streaming path."""
import json

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.second_pass import assign_left_biclustering_fast, assign_left_bmf_fast
from repro.core.sofa import CenterState, SofaParams, merge_center_states, sofa_pass
from repro.eval.quality import jaccard_quality
from repro.spark.distributed_sofa import (
    collect_partition_coresets,
    distributed_sofa,
)
from repro.spark.second_pass_df import assign_left_bmf_df
from repro.spark.structured import (
    STREAM_SCHEMA,
    sofa_from_stream_dir,
    write_stream_files,
)


def _centers(states):
    return [(c.support.tolist(), c.weight, c.sketch.to_tuples(), c.sketch.total)
            for c in states]


@pytest.fixture(scope="module")
def planted():
    n, k, r, ell, p = 400, 4, 18, 40, 0.9
    q = sd.noise_q_for_expected_degree(3, n, r)
    return sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=2)


@pytest.fixture(scope="module")
def params():
    return SofaParams(k=4, c_max=40, mg_capacity=120, seed=0)


class TestPartitionCoresets:
    def test_single_partition_equals_sequential(self, spark, planted, params):
        """With one partition the coreset is exactly the sequential
        engine's center set (same order, same seed)."""
        stream = sd.to_spark_stream(spark, planted, num_partitions=1)
        states = collect_partition_coresets(stream, params)
        seq = sofa_pass([a.tolist() for a in planted.adj], params,
                        m_hint=planted.n_left)
        # mapInPandas m_hint is the partition size = full stream here
        assert len(states) == len(seq.centers)
        got_w = sorted(s.weight for s in states)
        want_w = sorted(c.weight for c in seq.centers)
        assert got_w == pytest.approx(want_w)
        got_sup = sorted(tuple(s.support.tolist()) for s in states)
        want_sup = sorted(tuple(c.support.tolist()) for c in seq.centers)
        assert got_sup == want_sup

    def test_weight_conservation_across_partitions(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        assert sum(s.weight for s in states) == pytest.approx(planted.n_left)

    def test_coreset_size_bounded(self, spark, planted, params):
        n_parts = 4
        stream = sd.to_spark_stream(spark, planted, num_partitions=n_parts)
        states = collect_partition_coresets(stream, params)
        assert len(states) <= n_parts * params.c_max

    def test_sketch_capacity_respected(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        for s in states:
            assert len(s.sketch.counters) <= params.mg_capacity


class TestDistributedSofa:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_recovery_quality(self, spark, planted, params, n_parts):
        stream = sd.to_spark_stream(spark, planted, num_partitions=n_parts)
        res = distributed_sofa(stream, params, m_hint=planted.n_left)
        q = jaccard_quality(planted.right_clusters, res.right_clusters(0.5))
        assert q > 0.7, f"n_parts={n_parts} quality={q}"

    def test_total_weight_preserved(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        res = distributed_sofa(stream, params)
        assert sum(c.weight for c in res.centers) == pytest.approx(planted.n_left)

    def test_groups_nonempty(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=2)
        res = distributed_sofa(stream, params)
        assert 1 <= len(res.groups) <= params.c_max


class TestStructuredStreaming:
    def test_stream_files_roundtrip(self, tmp_path, planted):
        n_files = write_stream_files(planted, str(tmp_path / "s"), vertices_per_file=50)
        assert n_files == int(np.ceil(planted.n_left / 50))

    def test_sofa_over_structured_stream(self, spark, tmp_path, planted, params):
        """foreachBatch-fed SOFA matches the sequential pass in quality."""
        sdir = str(tmp_path / "stream")
        write_stream_files(planted, sdir, vertices_per_file=64)
        res = sofa_from_stream_dir(
            spark, sdir, params,
            m_hint=planted.n_left,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert res.n_processed == planted.n_left
        q = jaccard_quality(planted.right_clusters, res.right_clusters(0.5))
        assert q > 0.7, f"quality={q}"

    def test_micro_batching_does_not_lose_vertices(self, spark, tmp_path, params):
        g = sd.bipartite_sbm(k=2, ell=20, n_right=100, r=10, p=0.9, q=0.01, seed=9)
        sdir = str(tmp_path / "s2")
        write_stream_files(g, sdir, vertices_per_file=7)  # ragged batches
        res = sofa_from_stream_dir(spark, sdir, params, m_hint=g.n_left)
        assert res.n_processed == g.n_left


class TestNullNeighbors:
    def test_null_row_is_an_empty_vertex_on_every_path(self, spark, tmp_path, planted, params):
        """A row whose neighbor array is null enters SOFA as a vertex
        without edges, alike in the sequential pass, the partition pass
        and Structured Streaming, and both second passes read it the same
        way, sequentially and through mapInPandas."""
        rows = [a.tolist() for a in planted.adj]
        rows[5] = None
        seq = sofa_pass(rows, params, m_hint=len(rows))
        assert seq.n_processed == len(rows)

        pdf = pd.DataFrame({"u": np.arange(len(rows), dtype=np.int64), "neighbors": rows})
        stream = spark.createDataFrame(pdf, schema=STREAM_SCHEMA).repartition(1)
        assert _centers(collect_partition_coresets(stream, params)) == _centers(seq.centers)
        # distributed_sofa = driver merge of that one coreset, heaviest first
        coreset = sorted(seq.centers, key=lambda c: -c.weight)
        merged = merge_center_states(
            [CenterState(c.support, c.weight, c.sketch.copy()) for c in coreset],
            params, m_hint=len(rows))
        dist = distributed_sofa(stream, params, m_hint=len(rows))
        assert _centers(dist.centers) == _centers(merged.centers)

        sdir = tmp_path / "null"
        sdir.mkdir()
        with open(sdir / "batch-000000.json", "w") as f:
            for u, nbrs in enumerate(rows):
                f.write(json.dumps({"u": u, "neighbors": nbrs}) + "\n")
        streamed = sofa_from_stream_dir(spark, str(sdir), params, m_hint=len(rows))
        assert _centers(streamed.centers) == _centers(seq.centers)

        clusters = [c.tolist() for c in seq.right_clusters(0.5)]
        empty = [r if r is not None else [] for r in rows]
        assert (assign_left_biclustering_fast(rows, clusters)
                == assign_left_biclustering_fast(empty, clusters))
        bmf = assign_left_bmf_fast(rows, clusters)
        ref = assign_left_bmf_fast(empty, clusters)
        assert (bmf.memberships, bmf.choice_scores) == (ref.memberships, ref.choice_scores)
        assert bmf.memberships[5] == []
        got = assign_left_bmf_df(stream, clusters).toPandas()
        assert sorted(zip(got["u"], got["cluster"], got["sc"])) == sorted(
            (u, c, s) for u, (mem, scs) in enumerate(zip(ref.memberships, ref.choice_scores))
            for c, s in zip(mem, scs))
