"""Second pass over the stream: recovering the left clusters (paper §4).

Two variants, matching the paper:

* **Biclustering** (§4.1): each left vertex u is assigned to exactly one
  cluster — the one maximizing ``|Γ(u) ∩ Ṽ_i| / |Ṽ_i|``.
* **BMF** (§4.2): u may join several clusters; its neighborhood Γ(u) is
  greedily covered by right clusters using the over-cover-aware score
  ``score(A | X, Y) = |(X \\ Y) ∩ A| - |A \\ (X ∪ Y)|``, stopping when no
  cluster has positive score. Per-cluster total scores are accumulated
  (§5.3 uses them to prune down to the k best clusters when the
  k-Medians postprocessing step was skipped).

Both are embarrassingly parallel over u — ``repro.spark.second_pass_df``
fans them out over Spark. Both build the candidate clusters once per call
as CSR arrays (cluster → columns, column → clusters); per vertex the
overlap with every cluster is one ``np.bincount`` over the clusters of
its columns, and each greedy cover step updates every cluster's score
with two more, with no per-cluster Python loop. All counters are integers, so
the results are exact; the set-based transcriptions of the definitions
live in ``tests/reference.py``, and the tests require exact agreement
with them. Neighbour ids go through ``distance.as_support``: a null
neighbour array (a Spark row whose ``neighbors`` is null) is a vertex
without edges, as in the first pass, and a negative id raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .distance import as_support


@dataclass
class BmfAssignment:
    """Result of the §4.2 cover pass."""

    memberships: List[List[int]]   # per left vertex, the clusters it joined
    cluster_scores: np.ndarray     # total accumulated score per cluster (§5.3)
    choice_scores: List[List[float]]  # per vertex, score of each chosen cluster
    # memberships[u] is sorted by cluster id; choice_scores[u] is aligned
    # with it (the score each cluster contributed when it was picked).


def prune_to_top_k(
    right_clusters: Sequence[Sequence[int]],
    cluster_scores: np.ndarray,
    k: int,
) -> tuple[List[np.ndarray], List[int]]:
    """§5.3: keep the k clusters with the highest total cover score.

    Returns (kept clusters, kept original indices), score-descending.
    """
    order = np.argsort(-cluster_scores, kind="stable")[:k]
    kept = [np.asarray(sorted(right_clusters[i]), dtype=np.int64) for i in order]
    return kept, [int(i) for i in order]


class _Csr:
    """The candidate clusters as CSR arrays over local column ids (the
    distinct ids of their union): cluster -> its columns, and column ->
    the clusters containing it, both ascending."""

    def __init__(self, right_clusters: Sequence[Sequence[int]]):
        sups = [as_support(vc) for vc in right_clusters]
        self.k = len(sups)
        self.sizes = np.asarray([len(s) for s in sups], dtype=np.int64)
        self.ids, self.cl_cols = np.unique(
            np.concatenate(sups + [np.empty(0, np.int64)]), return_inverse=True)
        self.cl_ptr = np.concatenate([[0], np.cumsum(self.sizes)])
        col_sizes = np.bincount(self.cl_cols, minlength=len(self.ids))
        self.col_ptr = np.concatenate([[0], np.cumsum(col_sizes)])
        order = np.argsort(self.cl_cols, kind="stable")
        self.col_cl = np.repeat(np.arange(self.k), self.sizes)[order]

    def columns(self, nbrs: Optional[Sequence[int]]) -> np.ndarray:
        """Local ids of the vertex's neighbours that lie in some cluster."""
        x = as_support(nbrs)
        pos = np.searchsorted(self.ids, x)
        pos = pos[pos < len(self.ids)]  # x is sorted: this keeps a prefix of x
        return pos[self.ids[pos] == x[: len(pos)]]

    def counts(self, cols: np.ndarray) -> np.ndarray:
        """Per cluster, how many of the columns ``cols`` it contains."""
        start, stop = self.col_ptr[cols], self.col_ptr[cols + 1]
        lens = stop - start
        idx = (stop - lens.cumsum()).repeat(lens) + np.arange(lens.sum())
        return np.bincount(self.col_cl[idx], minlength=self.k)

    def cluster(self, c: int) -> np.ndarray:
        """Local column ids of cluster ``c``."""
        return self.cl_cols[self.cl_ptr[c]:self.cl_ptr[c + 1]]


def assign_left_biclustering_fast(
    stream: Iterable[Optional[Sequence[int]]],
    right_clusters: Sequence[Sequence[int]],
) -> List[int]:
    """§4.1: one cluster index per left vertex, the argmax of the relative
    overlap ``|Γ(u) ∩ Ṽ_i| / |Ṽ_i|`` (ties: the lowest index).

    Empty right clusters never win. A vertex with zero overlap everywhere
    still gets the argmax, the first non-empty cluster, matching the
    paper's formulation where every u is assigned somewhere.
    """
    csr = _Csr(right_clusters)
    if csr.k == 0:
        return []
    fsizes = np.maximum(csr.sizes, 1).astype(np.float64)
    nonempty = np.flatnonzero(csr.sizes)
    default = int(nonempty[0]) if len(nonempty) else 0
    out: List[int] = []
    for nbrs in stream:
        ov = csr.counts(csr.columns(nbrs))
        out.append(int(np.argmax(ov / fsizes)) if ov.any() else default)
    return out


def assign_left_bmf_fast(
    stream: Iterable[Optional[Sequence[int]]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the cluster with the
    highest positive ``score(V_c | X, Y)`` (ties: the lowest index) until
    none has a positive score. Per vertex it maintains, for every
    cluster c,

        A_c = |V_c ∩ (X \\ Y)|   (reward term)
        B_c = |V_c \\ (X ∪ Y)|   (penalty term)

    so score(V_c | X, Y) = A_c - B_c, kept as one integer array. Choosing
    cluster j moves the columns of V_j \\ Y into Y: each moved column in
    X lowers A_c (the score drops by one) and each one outside X lowers
    B_c (the score rises by one) for every cluster c containing it. A
    cluster disjoint from X keeps A_c = 0, so its score is never positive,
    and a chosen cluster ends at A_c = B_c = 0, so it is never chosen
    twice.
    """
    csr = _Csr(right_clusters)
    totals = np.zeros(csr.k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    in_x = np.zeros(len(csr.ids), dtype=bool)
    in_y = np.zeros(len(csr.ids), dtype=bool)
    for nbrs in stream:
        xc = csr.columns(nbrs)
        chosen: List[tuple[int, float]] = []
        if len(xc):
            in_x[xc] = True
            s = 2 * csr.counts(xc) - csr.sizes  # A - B, with B = size - A while Y is empty
            best = int(s.argmax())
            while s[best] > 0:
                chosen.append((best, float(s[best])))
                totals[best] += s[best]
                cols = csr.cluster(best)
                moved = cols[~in_y[cols]]
                in_y[moved] = True
                mx = in_x[moved]
                s -= csr.counts(moved[mx]) - csr.counts(moved[~mx])
                best = int(s.argmax())
            in_x[xc] = False
            for c, _ in chosen:
                in_y[csr.cluster(c)] = False
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([sc for _, sc in chosen])
    return BmfAssignment(memberships, totals, choice_scores)
