"""Hamming distances over sparse binary vectors (paper §3, §5.1).

Left-side vertices and SOFA centers are sparse 0/1 vectors over the
right-side vertex set V; we represent them by their support sets. The
distance is the paper's *asymmetric weighted* Hamming distance (§5.1):
for a center ``c`` and a point ``u``, position-wise cost is 0 when they
agree, 1 when ``u`` has a 1 the center lacks, and ``alpha`` when the
center has a 1 the point lacks. ``alpha = 1`` is plain (symmetric)
Hamming distance ``|supp(x) Δ supp(y)|``, which Algorithm 1 uses.
Smaller ``alpha`` promotes denser centers, which the paper found
essential on sparse real-world data (they use 0.1).

:class:`CenterIndex` computes the distance from one point to *all*
centers at once; SOFA's inner loop (line 6 of Algorithm 2) uses it.
Centers are kept as an inverted index plus a NumPy array of support
sizes; one query is a ``bincount`` over the posting lists of supp(u)
and one vectorized distance over all centers, with no per-center Python
loop. :func:`as_support` is the one place neighbour ids are normalized.

The static steps on a small point set (k-Medians over <= c_max centers,
Asso, the §5.5 sample) use the dense form: :func:`densify` and the
one-matmul all-pairs Hamming distance :func:`binary_l1`.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

DEFAULT_ALPHA = 0.1  # paper §5.1: alpha = 0.1 worked well on all datasets


def as_support(nbrs: Optional[Iterable[int]]) -> np.ndarray:
    """Sorted distinct ids of a neighbour list as an int64 array; ``None``
    (a Spark row whose ``neighbors`` is null) is the empty support.
    Raises ValueError on a negative id."""
    sup = np.unique(np.asarray(() if nbrs is None else nbrs, dtype=np.int64))
    if len(sup) and sup[0] < 0:
        raise ValueError(f"negative neighbour id {int(sup[0])}")
    return sup


class CenterIndex:
    """Incremental index over centers for fast nearest-center queries.

    Maintains, for each right-side vertex ``v``, the list of centers whose
    support contains ``v`` (an inverted index). For a query point ``u``
    with support ``S``, the overlap of ``u`` with every center is one
    ``np.bincount`` over the concatenated posting lists of ``S``; the
    asymmetric distance to center ``c`` is then::

        d(c, u) = (|S| - ov_c) + alpha * (|supp(c)| - ov_c)
                = |S| + alpha * |supp(c)| - (1 + alpha) * ov_c

    which needs only the overlap counts and the center support sizes.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._sizes = np.empty(0, dtype=np.float64)
        self._postings: Dict[int, list[int]] = {}

    def add(self, support: Optional[Iterable[int]]) -> int:
        """Register a new center; returns its index."""
        idx = len(self._sizes)
        sup = as_support(support)
        self._sizes = np.append(self._sizes, float(len(sup)))
        for v in sup.tolist():
            self._postings.setdefault(v, []).append(idx)
        return idx

    def nearest(self, point: Optional[Iterable[int]]) -> tuple[int, float]:
        """(index, distance) of the center closest to ``point``; ties go
        to the lowest index.

        Raises ValueError when the index holds no centers.
        """
        if not len(self._sizes):
            raise ValueError("no centers")
        ids = as_support(point).tolist()
        hits = chain.from_iterable(filter(None, map(self._postings.get, ids)))
        ov = np.bincount(np.fromiter(hits, dtype=np.int64), minlength=len(self._sizes))
        a = self.alpha
        d = len(ids) + a * self._sizes - (1.0 + a) * ov
        i = int(np.argmin(d))
        return i, max(0.0, float(d[i]))


def densify(rows: Sequence[Sequence[int]], cols: np.ndarray) -> np.ndarray:
    """Float32 0/1 matrix with ``X[i, j] = 1`` iff ``cols[j]`` is in
    ``rows[i]``, over the sorted distinct ids ``cols``. Raises ValueError
    on an id not in ``cols``."""
    cols = np.asarray(cols, dtype=np.int64)
    ids = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows] + [np.empty(0, np.int64)])
    if not np.isin(ids, cols).all():
        raise ValueError(f"ids not among the columns: {np.setdiff1d(ids, cols)[:5].tolist()}")
    X = np.zeros((len(rows), len(cols)), dtype=np.float32)
    X[np.repeat(np.arange(len(rows)), [len(r) for r in rows]), np.searchsorted(cols, ids)] = 1.0
    return X


def binary_l1(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """All-pairs ``||X[i] - C[j]||_1`` as ``|x| + |c| - 2 x.c`` (one matmul,
    no n x k x d broadcast). Valid for 0/1 ``X`` and ``C`` in [0, 1]; exact
    when ``C`` is 0/1 too, since every term is then an integer."""
    return X.sum(axis=1)[:, None] + C.sum(axis=1)[None, :] - 2.0 * (X @ C.T)
