"""Rounding-threshold selection (paper §5.4).

Two strategies, matching the paper:

* **Line search** ("sofa"): evaluate a list of thresholds
  θ ∈ {0.3, 0.4, 0.5, 0.6, 0.7}; the second pass is run for all of them
  (sharing the single pass over the stream) and the best clustering by
  the target metric is kept.

* **Likelihood heuristic** ("sofa-auto"), after [33]'s supplement: θ is a
  function of the model parameters (p, q) — the crossing point of the
  Binomial(W, p) and Binomial(W, q) counter distributions. A grid over
  (p, q) is scored by the log-likelihood of the observed MG counters
  under the two-component model, and the θ of the best (p*, q*) pair is
  used. We implement the crossing point in closed form,

      θ(p, q) = log((1-q)/(1-p)) / ( log(p/q) + log((1-q)/(1-p)) ),

  which is the count fraction t/W at which the two binomial pmfs are
  equal, and score each observed normalized counter c/W by
  ``log max(pmf_p, pmf_q)`` (hard-assignment likelihood). This is a
  faithful re-derivation of the heuristic; the original supplement is
  not reproduced verbatim (documented substitution, DESIGN.md §3).

  The binomial coefficient C(W, c) is the same for both components, so
  it cancels from ``max(pmf_p, pmf_q)`` and adds the same constant to
  every grid cell's likelihood: the argmax needs only
  ``c log p + (W - c) log(1 - p)``, one NumPy row per grid probability
  (``tests/reference.py`` keeps the ``lgamma`` form as the oracle).
"""
from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

LINE_SEARCH_THETAS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

_P_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_Q_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)


def theta_crossing(p: float, q: float) -> float:
    """Normalized count at which Binomial(W,p) and Binomial(W,q) pmfs
    cross (per-trial log-odds balance point); lies strictly in (q, p)."""
    if not (0 < q < p < 1):
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    a = math.log((1 - q) / (1 - p))
    b = math.log(p / q)
    return a / (a + b)


def auto_theta(
    counter_sets: Iterable[Sequence[float]],
    weights: Sequence[float],
) -> Tuple[float, float, float]:
    """sofa-auto: pick (p*, q*) maximizing the hard-assignment likelihood
    of the observed MG counters; return (theta*, p*, q*).

    ``counter_sets[i]`` are the counter values of cluster group i,
    ``weights[i]`` its total weight W_i. Groups with ``W_i <= 0`` or no
    counters are skipped.
    """
    cs, rests = [np.empty(0)], [np.empty(0)]
    for counters, w in zip(counter_sets, weights):
        counters, w = np.asarray(counters, dtype=np.float64), float(w)
        if w > 0 and len(counters):
            cs.append(np.clip(counters, 0.0, w))
            rests.append(w - cs[-1])
    c, rest = np.concatenate(cs), np.concatenate(rests)
    # log-likelihood of every counter without the binomial coefficient,
    # one row per grid probability
    loglik = {pr: c * math.log(pr) + rest * math.log1p(-pr) for pr in _P_GRID + _Q_GRID}
    best = (-math.inf, 0.5, 0.01)
    for p in _P_GRID:
        for q in _Q_GRID:
            if q >= p:
                continue
            ll = np.maximum(loglik[p], loglik[q]).sum()
            if ll > best[0]:
                best = (ll, p, q)
    _, p_star, q_star = best
    return theta_crossing(p_star, q_star), p_star, q_star


def auto_theta_from_groups(groups) -> Tuple[float, float, float]:
    """Convenience wrapper over ``SofaResult.groups``."""
    counter_sets = [list(gr.sketch.counters.values()) for gr in groups]
    weights = [gr.total_weight for gr in groups]
    return auto_theta(counter_sets, weights)
