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


def _binom_logpmf(c: float, w: float, prob: float) -> float:
    """Stirling-free log pmf via lgamma; c, w may be fractional (MG
    counters and weights are floats)."""
    c = min(max(c, 0.0), w)
    return (
        math.lgamma(w + 1)
        - math.lgamma(c + 1)
        - math.lgamma(w - c + 1)
        + c * math.log(prob)
        + (w - c) * math.log1p(-prob)
    )


def auto_theta(
    counter_sets: Iterable[Sequence[float]],
    weights: Sequence[float],
) -> Tuple[float, float, float]:
    """sofa-auto: pick (p*, q*) maximizing the hard-assignment likelihood
    of the observed MG counters; return (theta*, p*, q*).

    ``counter_sets[i]`` are the counter values of cluster group i,
    ``weights[i]`` its total weight W_i.
    """
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
                    ll += max(
                        _binom_logpmf(c, w, p), _binom_logpmf(c, w, q)
                    )
            if ll > best[0]:
                best = (ll, p, q)
    _, p_star, q_star = best
    return theta_crossing(p_star, q_star), p_star, q_star


def auto_theta_from_groups(groups) -> Tuple[float, float, float]:
    """Convenience wrapper over ``SofaResult.groups``."""
    counter_sets = [list(gr.sketch.counters.values()) for gr in groups]
    weights = [gr.total_weight for gr in groups]
    return auto_theta(counter_sets, weights)
