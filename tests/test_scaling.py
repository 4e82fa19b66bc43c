"""Scaling-shape test: the paper's central run-time claim — sofa scales
linearly in the number of edges while the static baseline (basso,
O(k |U|^2 |V|)) grows superlinearly. jobs/scaling_runtime.py runs the
full sweep; this test checks the shape at reduced size."""
import time

import numpy as np
import pytest

from repro.baselines.asso import asso
from repro.core.sofa import SofaParams, sofa_pass
from repro.synth_data import planted_zipf_bipartite


def _graph(scale: int):
    return planted_zipf_bipartite(
        n_left=400 * scale, n_right=300 * scale, k_true=6 * scale, r=12,
        p=0.6, memberships_per_left=0.7, background_deg=4.0,
        degree_zipf=0.9, seed=300 + scale,
    )


def _time(fn) -> float:
    """Best of 3 wall times: one timing of a sub-second call moves with
    the load other processes (such as a Spark JVM) put on the host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestScalingShape:
    def test_basso_grows_faster_than_sofa(self):
        k = 4
        times = {}
        for scale in (1, 4):
            g = _graph(scale)
            params = SofaParams(
                k=k, c_max=20 * k,
                mg_capacity=max(60, int(0.05 * g.n_right)),
                seed=0, skip_kmedians=True,
            )
            t_sofa = _time(lambda: sofa_pass(
                [a.tolist() for a in g.adj], params, m_hint=g.n_left))
            t_basso = _time(lambda: asso(
                g.adj, g.n_right, k, tau=0.4, budget_bytes=2**32))
            times[scale] = (t_sofa, t_basso)
        sofa_growth = times[4][0] / max(times[1][0], 1e-6)
        basso_growth = times[4][1] / max(times[1][1], 1e-6)
        # |E| grows ~4x; sofa should stay near-linear while basso's
        # quadratic-in-|V| term dominates. Generous margin for CI noise.
        assert basso_growth > 2.0 * sofa_growth, (
            f"sofa x{sofa_growth:.1f}, basso x{basso_growth:.1f}"
        )

    def test_sofa_roughly_linear_in_edges(self):
        k = 4
        rows = []
        for scale in (1, 2, 4):
            g = _graph(scale)
            params = SofaParams(
                k=k, c_max=20 * k,
                mg_capacity=max(60, int(0.05 * g.n_right)),
                seed=0, skip_kmedians=True,
            )
            t = _time(lambda: sofa_pass(
                [a.tolist() for a in g.adj], params, m_hint=g.n_left))
            rows.append((g.n_edges, t))
        # time per edge must not blow up: x4 data -> at most ~4x per-edge
        # budget (allows center-count growth + noise, rejects quadratics)
        per_edge = [t / e for e, t in rows]
        assert per_edge[-1] < 6.0 * per_edge[0] + 1e-9
