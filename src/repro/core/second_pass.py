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
fans them out over Spark. Both use an inverted index (right vertex →
clusters containing it), so one vertex costs
O(deg(u) * clusters-per-right-vertex) instead of O(k * s); the set-based
transcriptions of the definitions live in ``tests/reference.py``, and
the tests require exact agreement with them. A null neighbour array (a
Spark row whose ``neighbors`` is null) is a vertex without edges, as in
the first pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np


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


def _build_inverted(right_clusters: Sequence[Sequence[int]]):
    """v -> list of cluster ids containing v, plus cluster sizes/sets."""
    inv: dict[int, List[int]] = {}
    vsets = []
    for i, vc in enumerate(right_clusters):
        s = set(int(v) for v in vc)
        vsets.append(s)
        for v in s:
            inv.setdefault(v, []).append(i)
    sizes = np.asarray([len(s) for s in vsets], dtype=np.int64)
    return inv, vsets, sizes


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
    inv, vsets, sizes = _build_inverted(right_clusters)
    k = len(vsets)
    if k == 0:
        return []
    fsizes = np.maximum(sizes, 1).astype(np.float64)
    # precompute the zero-overlap default: argmax over ratios that are all
    # 0 except -inf for empty clusters -> first non-empty cluster, else 0
    nonempty = [i for i in range(k) if sizes[i] > 0]
    default = nonempty[0] if nonempty else 0
    out: List[int] = []
    ov = np.zeros(k, dtype=np.int64)
    for nbrs in stream:
        touched: List[int] = []
        for v in (set(int(x) for x in nbrs) if nbrs is not None else ()):
            for ci in inv.get(v, ()):
                if ov[ci] == 0:
                    touched.append(ci)
                ov[ci] += 1
        if not touched:
            out.append(default)
            continue
        best_i, best_r = -1, -1.0
        for ci in sorted(touched):
            r = ov[ci] / fsizes[ci]
            if r > best_r + 1e-15:
                best_i, best_r = ci, r
        out.append(best_i)
        for ci in touched:
            ov[ci] = 0
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

    so score(V_c | X, Y) = A_c - B_c. Choosing cluster j moves the
    elements of V_j \\ Y into Y; each moved element v decrements A_c of
    every cluster containing v when v ∈ X, else decrements B_c.
    """
    inv, vsets, sizes = _build_inverted(right_clusters)
    k = len(vsets)
    totals = np.zeros(k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    A = np.zeros(k, dtype=np.int64)
    for nbrs in stream:
        x = set(int(v) for v in nbrs) if nbrs is not None else set()
        # A_c = |V_c ∩ X| initially (Y empty); B_c = size_c - A_c
        touched: List[int] = []
        for v in x:
            for ci in inv.get(v, ()):
                if A[ci] == 0:
                    touched.append(ci)
                A[ci] += 1
        # candidate clusters with possibly positive score must intersect X
        # (otherwise score = -|V_c \ Y| <= 0, never chosen)
        cand = {ci: (int(A[ci]), int(sizes[ci] - A[ci])) for ci in touched}
        y: set = set()
        chosen: List[tuple[int, float]] = []
        while cand:
            best_i, best_s = -1, None
            for ci, (a, b) in cand.items():
                s = a - b
                if best_s is None or s > best_s or (s == best_s and ci < best_i):
                    best_i, best_s = ci, s
            if best_s is None or best_s <= 0:
                break
            chosen.append((best_i, float(best_s)))
            totals[best_i] += best_s
            # move V_best \ Y into Y and update counters of co-clusters
            for v in vsets[best_i]:
                if v in y:
                    continue
                y.add(v)
                v_in_x = v in x
                for cj in inv.get(v, ()):
                    if cj not in cand:
                        continue
                    a, b = cand[cj]
                    if v_in_x:
                        cand[cj] = (a - 1, b)
                    else:
                        cand[cj] = (a, b - 1)
            cand.pop(best_i, None)
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([s for _, s in chosen])
        for ci in touched:
            A[ci] = 0
    return BmfAssignment(memberships, totals, choice_scores)
