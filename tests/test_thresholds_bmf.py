"""Tests for θ selection (§5.4) and the BMF factor/metrics glue (§2.2)."""
import dataclasses
import math

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.bmf import reconstruction_metrics
from repro.core.sofa import SofaParams, sofa_pass
from repro.core.thresholds import (
    LINE_SEARCH_THETAS,
    auto_theta,
    auto_theta_from_groups,
    theta_crossing,
)
from repro.eval.datasets import DATASET_NAMES, load_dataset
from repro.eval.harness import sofa_params_for
from tests.reference import (
    BooleanFactors,
    assign_left_bmf,
    auto_theta_lgamma,
    factors_from_memberships,
)


class TestThetaCrossing:
    def test_bounds(self):
        th = theta_crossing(0.8, 0.05)
        assert 0.05 < th < 0.8

    def test_symmetric_case(self):
        # p = 1 - q makes the crossing land at exactly 1/2
        assert theta_crossing(0.9, 0.1) == pytest.approx(0.5)

    def test_monotone_in_p(self):
        assert theta_crossing(0.9, 0.05) > theta_crossing(0.6, 0.05)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            theta_crossing(0.3, 0.5)
        with pytest.raises(ValueError):
            theta_crossing(1.0, 0.5)

    def test_crossing_balances_binomial_pmfs(self):
        """At t = W*theta the per-trial log-likelihood ratio is zero."""
        p, q, w = 0.8, 0.04, 200.0
        th = theta_crossing(p, q)
        t = th * w
        ll_p = t * math.log(p) + (w - t) * math.log(1 - p)
        ll_q = t * math.log(q) + (w - t) * math.log(1 - q)
        assert ll_p == pytest.approx(ll_q, abs=1e-9)


class TestAutoTheta:
    def test_recovers_planted_p_q(self):
        """Counters drawn from a clean two-component model pick the right
        grid cell."""
        rng = np.random.default_rng(0)
        w = 100.0
        members = rng.binomial(100, 0.8, 30).astype(float)
        noise = rng.binomial(100, 0.02, 50).astype(float)
        noise = noise[noise > 0]
        th, p, q = auto_theta([np.concatenate([members, noise])], [w])
        assert p == pytest.approx(0.8)
        assert q <= 0.05
        assert 0.1 < th < 0.8

    def test_empty_groups_ok(self):
        th, p, q = auto_theta([[]], [0.0])
        assert 0 < th < 1

    def test_from_sofa_groups(self):
        g = sd.bipartite_sbm(k=3, ell=40, n_right=400, r=18, p=0.8,
                             q=sd.noise_q_for_expected_degree(3, 400, 18), seed=0)
        res = sofa_pass(
            [a.tolist() for a in g.adj],
            SofaParams(k=3, c_max=30, mg_capacity=100, seed=0),
        )
        th, p, q = auto_theta_from_groups(res.groups)
        assert 0.05 < th < 0.95

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_equals_lgamma_oracle_on_stand_ins(self, name):
        """Dropping the binomial coefficient picks the same grid cell as
        the full lgamma likelihood on every stand-in's k=16 groups."""
        g = load_dataset(name)
        params = dataclasses.replace(sofa_params_for(g, 16), skip_kmedians=False)
        res = sofa_pass([a.tolist() for a in g.adj], params, m_hint=g.n_left)
        assert auto_theta_from_groups(res.groups) == auto_theta_lgamma(
            [list(gr.sketch.counters.values()) for gr in res.groups],
            [gr.total_weight for gr in res.groups],
        )

    def test_empty_input_matches_oracle(self):
        for sets, ws in (([], []), ([[]], [0.0]), ([[1.0, 2.0]], [0.0])):
            assert auto_theta(sets, ws) == auto_theta_lgamma(sets, ws)

    def test_line_search_grid_matches_paper(self):
        assert LINE_SEARCH_THETAS == (0.3, 0.4, 0.5, 0.6, 0.7)


class TestFactors:
    def test_factors_from_memberships(self):
        f = factors_from_memberships([[0], [0, 1], []], [[1, 2], [3]], m=3, n=5)
        assert f.k == 2
        assert f.left[0].tolist() == [0, 1]
        assert f.left[1].tolist() == [1]
        assert f.m == 3 and f.n == 5

    def test_dense_boolean_product(self):
        f = factors_from_memberships([[0], [1]], [[0, 1], [2]], m=2, n=3)
        L, R = f.dense()
        B = (L @ R > 0).astype(int)  # Boolean product == integer product > 0
        assert B.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_dense_shapes(self):
        f = BooleanFactors(left=[np.array([0])], right=[np.array([1])], m=4, n=6)
        L, R = f.dense()
        assert L.shape == (4, 1) and R.shape == (1, 6)


class TestReconstructionMetrics:
    def test_perfect_reconstruction(self):
        adj = [np.array([1, 2]), np.array([3])]
        m = reconstruction_metrics(adj, [[0], [1]], [[1, 2], [3]])
        assert m.relative_hamming_gain == pytest.approx(1.0)
        assert m.recall == pytest.approx(1.0)

    def test_empty_factorization(self):
        adj = [np.array([1, 2, 3])]
        m = reconstruction_metrics(adj, [[]], [[9]])
        assert m.relative_hamming_gain == pytest.approx(0.0)
        assert m.recall == pytest.approx(0.0)

    def test_overcover_hurts_gain_not_recall(self):
        adj = [np.array([1])]
        m = reconstruction_metrics(adj, [[0]], [[1, 2, 3]])
        assert m.recall == pytest.approx(1.0)
        assert m.relative_hamming_gain == pytest.approx(1.0 - 2 / 1)

    def test_matches_dense_computation(self):
        """Sparse row-wise metrics == dense B vs L∘R comparison."""
        rng = np.random.default_rng(1)
        m_, n_ = 30, 20
        adj = [np.flatnonzero(rng.random(n_) < 0.2) for _ in range(m_)]
        clusters = [sorted(rng.choice(n_, 5, replace=False).tolist()) for _ in range(3)]
        res = assign_left_bmf([a.tolist() for a in adj], clusters)
        met = reconstruction_metrics(adj, res.memberships, clusters)

        B = np.zeros((m_, n_), dtype=int)
        for u, a in enumerate(adj):
            B[u, a] = 1
        f = factors_from_memberships(res.memberships, clusters, m_, n_)
        L, R = f.dense()
        Bt = (L.astype(int) @ R.astype(int) > 0).astype(int)
        ones = B.sum()
        errors = (B != Bt).sum()
        tp = ((B == 1) & (Bt == 1)).sum()
        assert met.ones == ones
        assert met.errors == errors
        assert met.true_positives == tp

    def test_gain_can_be_negative(self):
        adj = [np.array([1])]
        m = reconstruction_metrics(adj, [[0]], [list(range(10))])
        assert m.relative_hamming_gain < 0
