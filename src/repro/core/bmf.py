"""Boolean matrix factorization glue (paper §2.2, §5.3).

Clusters ↔ factors: the left clusters Ũ_i are the columns of
L ∈ {0,1}^{m×k} and the right clusters Ṽ_i are the rows of
R ∈ {0,1}^{k×n}; B̃ = L ∘ R under the Boolean algebra is the union of
the k rectangles Ũ_i × Ṽ_i.

This module computes the paper's quality measures over the *sparse*
representation (never a dense m×n matrix):

* relative Hamming gain: ``1 - |{(i,j): B_ij != B̃_ij}| / |{B_ij = 1}|``
* recall: ``|{B_ij = 1 and B̃_ij = 1}| / |{B_ij = 1}|``

The Spark version lives in ``repro.spark.metrics_df``; the tests check
it against DuckDB SQL and against this module, and check this module
against the dense product L ∘ R.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class ReconstructionMetrics:
    ones: int          # |{B_ij = 1}|
    errors: int        # |{B_ij != B̃_ij}|
    true_positives: int

    @property
    def relative_hamming_gain(self) -> float:
        return 1.0 - self.errors / self.ones if self.ones else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.ones if self.ones else 0.0


def reconstruction_metrics(
    adj: Sequence[np.ndarray],
    memberships: Sequence[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> ReconstructionMetrics:
    """Row-by-row sparse evaluation of B vs B̃ = L ∘ R.

    For left vertex u the reconstructed row is the union of its member
    clusters; false negatives are Γ(u) \\ cover, false positives are
    cover \\ Γ(u).
    """
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    ones = errors = tp = 0
    for u, nbrs in enumerate(adj):
        gu = set(int(v) for v in nbrs)
        cover: set = set()
        for i in memberships[u]:
            cover |= vsets[i]
        ones += len(gu)
        tp += len(gu & cover)
        errors += len(gu ^ cover)
    return ReconstructionMetrics(ones=ones, errors=errors, true_positives=tp)
