"""Set-based reference implementations the tests compare against.

Each function here is the direct transcription of a paper definition
over Python sets or a scalar loop. ``src/`` keeps only the fast forms
(the bincount ``CenterIndex``, the closed-form ``auto_theta`` and the
CSR second passes); these slow forms are the oracles that pin them down:

* ``hamming`` / ``asymmetric_hamming``: the distances of paper §3 and
  §5.1;
* ``LoopCenterIndex``: the nearest-center query as a Python loop over
  every center (strict ``<``, so ties go to the lowest index);
* ``auto_theta_lgamma``: the §5.4 likelihood heuristic with full
  ``lgamma`` binomial log-pmfs, scored one counter at a time;
* ``l1_broadcast``: all-pairs L1 between dense rows, the elementwise
  form ``binary_l1`` replaces with one matrix product;
* ``score``, ``assign_left_biclustering`` and ``assign_left_bmf``: the
  §4.1 assignment and the §4.2 greedy cover;
* ``BooleanFactors`` / ``factors_from_memberships``: the dense factors
  L, R of §2.2, for checking the sparse reconstruction metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.distance import DEFAULT_ALPHA
from repro.core.second_pass import BmfAssignment
from repro.core.thresholds import _P_GRID, _Q_GRID, theta_crossing


def hamming(x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric Hamming distance between two supports."""
    return len(set(x) ^ set(y))


def asymmetric_hamming(
    center: Sequence[int], point: Sequence[int], alpha: float = DEFAULT_ALPHA
) -> float:
    """Asymmetric weighted Hamming distance of a center to a point.

    cost = |supp(point) \\ supp(center)| + alpha * |supp(center) \\ supp(point)|
    """
    sc, sp = set(center), set(point)
    return len(sp - sc) + alpha * len(sc - sp)


class LoopCenterIndex:
    """``CenterIndex`` with the overlap counted in a dict and the distance
    to each center computed in a Python loop."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._sizes: list[int] = []
        self._postings: Dict[int, list[int]] = {}

    def add(self, support: Sequence[int]) -> int:
        idx = len(self._sizes)
        sup = set(int(v) for v in support)
        self._sizes.append(len(sup))
        for v in sup:
            self._postings.setdefault(v, []).append(idx)
        return idx

    def nearest(self, point: Sequence[int]) -> tuple[int, float]:
        if not self._sizes:
            raise ValueError("no centers")
        pts = set(int(v) for v in point)
        overlaps: Dict[int, int] = {}
        for v in pts:
            for ci in self._postings.get(v, ()):
                overlaps[ci] = overlaps.get(ci, 0) + 1
        a = self.alpha
        base = len(pts)
        best_i, best_d = -1, float("inf")
        for ci, size in enumerate(self._sizes):
            d = base + a * size - (1.0 + a) * overlaps.get(ci, 0)
            if d < best_d:
                best_i, best_d = ci, d
        return best_i, max(0.0, best_d)


def _binom_logpmf(c: float, w: float, prob: float) -> float:
    c = min(max(c, 0.0), w)
    return (
        math.lgamma(w + 1)
        - math.lgamma(c + 1)
        - math.lgamma(w - c + 1)
        + c * math.log(prob)
        + (w - c) * math.log1p(-prob)
    )


def auto_theta_lgamma(
    counter_sets: Iterable[Sequence[float]], weights: Sequence[float]
) -> Tuple[float, float, float]:
    """(theta*, p*, q*) of the grid cell with the highest hard-assignment
    log-likelihood ``sum log max(pmf_p(c), pmf_q(c))`` (first best wins)."""
    counter_sets = [np.asarray(cs, dtype=np.float64) for cs in counter_sets]
    weights = [float(w) for w in weights]
    best = (-math.inf, 0.5, 0.01)
    for p in _P_GRID:
        for q in _Q_GRID:
            if q >= p:
                continue
            ll = 0.0
            for cs, w in zip(counter_sets, weights):
                if w <= 0 or len(cs) == 0:
                    continue
                for c in cs:
                    ll += max(_binom_logpmf(c, w, p), _binom_logpmf(c, w, q))
            if ll > best[0]:
                best = (ll, p, q)
    _, p_star, q_star = best
    return theta_crossing(p_star, q_star), p_star, q_star


def l1_broadcast(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``D[i, j] = sum_d |X[i, d] - C[j, d]|`` through an n x k x d array."""
    return np.abs(X[:, None] - C[None]).sum(axis=2)


def score(a: set, x: set, y: set) -> int:
    """The §4.2 covering score: reward newly covered elements of x,
    penalize fresh over-cover outside x ∪ y."""
    return len((x - y) & a) - len(a - (x | y))


def assign_left_biclustering(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> List[int]:
    """§4.1: one cluster index per left vertex (argmax relative overlap).

    Empty right clusters never win (relative overlap treated as -inf);
    a vertex with zero overlap everywhere still gets the argmax (index
    of the first maximal ratio, i.e. 0 overlap / size), matching the
    paper's formulation where every u is assigned somewhere.
    """
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    sizes = np.asarray([max(1, len(s)) for s in vsets], dtype=np.float64)
    out: List[int] = []
    for nbrs in stream:
        gu = set(int(v) for v in nbrs)
        ratios = np.asarray([len(gu & s) for s in vsets], dtype=np.float64) / sizes
        ratios[[i for i, s in enumerate(vsets) if not s]] = -np.inf
        out.append(int(np.argmax(ratios)))
    return out


def assign_left_bmf(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score."""
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    totals = np.zeros(len(vsets), dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    for nbrs in stream:
        x = set(int(v) for v in nbrs)
        y: set = set()
        chosen: List[tuple[int, float]] = []
        avail = set(range(len(vsets)))
        while avail:
            scores = {i: score(vsets[i], x, y) for i in avail}
            i_star = max(scores, key=lambda i: (scores[i], -i))
            if scores[i_star] <= 0:
                break
            chosen.append((i_star, float(scores[i_star])))
            totals[i_star] += scores[i_star]
            y |= vsets[i_star]
            avail.discard(i_star)
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([s for _, s in chosen])
    return BmfAssignment(memberships, totals, choice_scores)


@dataclass
class BooleanFactors:
    """Sparse Boolean factors: per-cluster member lists on both sides."""

    left: List[np.ndarray]   # Ũ_i — columns of L
    right: List[np.ndarray]  # Ṽ_i — rows of R
    m: int
    n: int

    @property
    def k(self) -> int:
        return len(self.right)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) as dense uint8 arrays."""
        L = np.zeros((self.m, self.k), dtype=np.uint8)
        R = np.zeros((self.k, self.n), dtype=np.uint8)
        for i, (ul, vr) in enumerate(zip(self.left, self.right)):
            L[np.asarray(ul, dtype=np.int64), i] = 1
            R[i, np.asarray(vr, dtype=np.int64)] = 1
        return L, R


def factors_from_memberships(
    memberships: Sequence[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
    m: int,
    n: int,
) -> BooleanFactors:
    """Build factors from per-left-vertex membership lists (§4.2 output)."""
    k = len(right_clusters)
    left: List[List[int]] = [[] for _ in range(k)]
    for u, mem in enumerate(memberships):
        for i in mem:
            left[i].append(u)
    return BooleanFactors(
        left=[np.asarray(l, dtype=np.int64) for l in left],
        right=[np.asarray(sorted(r), dtype=np.int64) for r in right_clusters],
        m=m,
        n=n,
    )
