"""Reconstruction metrics as Spark SQL joins (paper §6.2 measures).

Relative Hamming gain and recall compare the biadjacency matrix B
against B̃ = L ∘ R. Neither matrix is ever materialized densely: B is
the edge list, and B̃'s non-zero cells are the union of rectangles
Ũ_i × Ṽ_i, produced by joining the left-membership table with the
right-cluster table and deduplicating. The quantities

    ones   = |{B = 1}|             (edge count)
    tp     = |{B = 1 ∧ B̃ = 1}|    (edges ∩ reconstructed cells)
    fp     = |{B = 0 ∧ B̃ = 1}|    (reconstructed cells − edges)
    errors = (ones − tp) + fp      (symmetric difference)

give gain = 1 − errors/ones and recall = tp/ones — exactly the paper's
definitions. Every aggregate is plain relational algebra, so the tests
oracle-check these against DuckDB SQL on the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import DataFrame


@dataclass
class SparkReconstruction:
    ones: int
    true_positives: int
    false_positives: int

    @property
    def errors(self) -> int:
        return (self.ones - self.true_positives) + self.false_positives

    @property
    def relative_hamming_gain(self) -> float:
        return 1.0 - self.errors / self.ones if self.ones else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.ones if self.ones else 0.0


def reconstructed_cells_df(membership_df: DataFrame, clusters_df: DataFrame) -> DataFrame:
    """Distinct non-zero cells (u, v) of B̃ = L ∘ R: the Boolean matrix
    product is exactly 'u and v share at least one cluster'."""
    return (
        membership_df.select("u", "cluster")
        .join(clusters_df, "cluster")
        .select("u", "v")
        .distinct()
    )


def reconstruction_metrics_df(
    edges_df: DataFrame, membership_df: DataFrame, clusters_df: DataFrame
) -> SparkReconstruction:
    """Compute the gain/recall counters with one collect of
    :func:`metrics_summary_df`."""
    row = metrics_summary_df(edges_df, membership_df, clusters_df).collect()[0]
    # sums over an empty join are null: no edges and no cells count zero
    return SparkReconstruction(
        ones=int(row["ones"] or 0),
        true_positives=int(row["tp"] or 0),
        false_positives=int(row["fp"] or 0),
    )


def metrics_summary_df(
    edges_df: DataFrame, membership_df: DataFrame, clusters_df: DataFrame
) -> DataFrame:
    """Single-row DataFrame of the counters (ones, tp, fp): one Catalyst
    plan over a full outer join of B's edges with B̃'s cells. Gain and
    recall follow from them (:class:`SparkReconstruction`)."""
    cells = reconstructed_cells_df(membership_df, clusters_df)
    edges = edges_df.select("u", "v").distinct()
    both = edges.withColumn("in_b", F.lit(1)).join(
        cells.withColumn("in_bt", F.lit(1)), ["u", "v"], "full_outer"
    )
    return both.agg(
        F.sum(F.coalesce("in_b", F.lit(0))).alias("ones"),
        F.sum(
            F.coalesce("in_b", F.lit(0)) * F.coalesce("in_bt", F.lit(0))
        ).alias("tp"),
        F.sum(
            (F.lit(1) - F.coalesce("in_b", F.lit(0))) * F.coalesce("in_bt", F.lit(0))
        ).alias("fp"),
    )
