"""Tests for the Spark second pass (§4 as dataflow), oracle-checked
against DuckDB and against the set-based reference implementations."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro import synth_data as sd
from repro.spark.second_pass_df import (
    assign_left_bmf_df,
    assign_left_biclustering_df,
    clusters_to_df,
)
from tests.oracle import assert_equivalent
from tests.reference import assign_left_biclustering, assign_left_bmf


@pytest.fixture(scope="module")
def graph():
    return sd.planted_zipf_bipartite(
        n_left=150, n_right=250, k_true=5, r=12, p=0.85,
        memberships_per_left=1.3, background_deg=2.0, seed=11,
    )


@pytest.fixture(scope="module")
def stream(spark, graph):
    return sd.to_spark_stream(spark, graph, num_partitions=4).cache()


@pytest.fixture(scope="module")
def clusters(graph):
    return [c.tolist() for c in graph.right_clusters]


@pytest.fixture(scope="module")
def clusters_df(spark, clusters):
    return clusters_to_df(spark, clusters).cache()


class TestClustersToDf:
    def test_row_count(self, clusters_df, clusters):
        assert clusters_df.count() == sum(len(c) for c in clusters)

    def test_empty_clusters(self, spark):
        df = clusters_to_df(spark, [])
        assert df.count() == 0
        assert df.columns == ["cluster", "v"]

    def test_empty_cluster_contributes_no_rows(self, spark):
        df = clusters_to_df(spark, [[1, 2], [], [5]])
        got = {r["cluster"] for r in df.collect()}
        assert got == {0, 2}


class TestBiclusteringAssignment:
    def test_matches_sequential_reference(self, spark, stream, clusters_df, graph, clusters):
        got = {
            r["u"]: r["cluster"]
            for r in assign_left_biclustering_df(stream, clusters_df).collect()
        }
        want = assign_left_biclustering([a.tolist() for a in graph.adj], clusters)
        assert len(got) == graph.n_left
        mismatch = [u for u in range(graph.n_left) if got[u] != want[u]]
        assert mismatch == []

    def test_every_vertex_assigned_exactly_once(self, stream, clusters_df, graph):
        df = assign_left_biclustering_df(stream, clusters_df)
        assert df.count() == graph.n_left
        assert df.select("u").distinct().count() == graph.n_left

    def test_overlap_computation_oracle(self, spark, stream, clusters_df, graph, clusters):
        """The core join+agg of the assignment plan vs DuckDB."""
        edges = stream.select("u", F.explode("neighbors").alias("v"))
        overlap = (
            edges.join(clusters_df, "v")
            .groupBy("u", "cluster")
            .agg(F.count("*").alias("ov"))
        )
        cpdf = pd.DataFrame(
            [(i, v) for i, vc in enumerate(clusters) for v in vc],
            columns=["cluster", "v"],
        )
        assert_equivalent(
            overlap,
            "SELECT e.u AS u, c.cluster AS cluster, count(*) AS ov "
            "FROM e JOIN c ON e.v = c.v GROUP BY e.u, c.cluster",
            e=graph.edge_pandas(),
            c=cpdf,
        )

    def test_argmax_rule_oracle(self, spark, stream, clusters_df, graph, clusters):
        """Full §4.1 argmax in SQL (window fn) vs the Spark plan, for the
        vertices that have at least one overlap."""
        got = assign_left_biclustering_df(stream, clusters_df)
        edges_pdf = graph.edge_pandas()
        cpdf = pd.DataFrame(
            [(i, v) for i, vc in enumerate(clusters) for v in vc],
            columns=["cluster", "v"],
        )
        sizes = cpdf.groupby("cluster").size().rename("csize").reset_index()
        sql = """
            WITH ov AS (
                SELECT e.u AS u, c.cluster AS cluster, count(*) AS ov
                FROM e JOIN c ON e.v = c.v GROUP BY e.u, c.cluster
            ), ranked AS (
                SELECT ov.u, ov.cluster,
                       row_number() OVER (
                           PARTITION BY ov.u
                           ORDER BY ov.ov * 1.0 / s.csize DESC, ov.cluster ASC
                       ) AS rn
                FROM ov JOIN s ON ov.cluster = s.cluster
            )
            SELECT u, cluster FROM ranked WHERE rn = 1
        """
        overlapping = got.join(
            stream.select("u", F.explode("neighbors").alias("v"))
            .join(clusters_df, "v")
            .select("u")
            .distinct(),
            "u",
        )
        assert_equivalent(overlapping, sql, e=edges_pdf, c=cpdf, s=sizes)


class TestBmfAssignment:
    def test_matches_sequential_reference(self, stream, graph, clusters):
        rows = assign_left_bmf_df(stream, clusters).collect()
        got = {}
        for r in rows:
            got.setdefault(r["u"], []).append(r["cluster"])
        want = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        for u in range(graph.n_left):
            assert sorted(got.get(u, [])) == want.memberships[u]

    def test_cluster_scores_match_reference(self, spark, stream, graph, clusters):
        """Per-cluster sums of the ``sc`` column are the §5.3 totals."""
        mdf = assign_left_bmf_df(stream, clusters)
        got = {
            r["cluster"]: r["total_score"]
            for r in mdf.groupBy("cluster").agg(F.sum("sc").alias("total_score")).collect()
        }
        want = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        for i, s in enumerate(want.cluster_scores):
            assert got.get(i, 0.0) == pytest.approx(s)
