"""Run-time scaling experiment (the claim behind Table 4 and §6.1's
"sofa scales linearly in the number of edges").

At 1/50 stand-in scale basso's O(k |U|^2 |V|) cost does not yet dominate
its BLAS-friendly constant, so the absolute Table 4 ordering cannot
reproduce (documented in EXPERIMENTS.md). The paper's load-bearing claim
is the *scaling shape*: sofa's run-time grows linearly in |E| while the
static baseline grows superlinearly (the paper's ℓ-sweep, Fig. 1i,
makes the same point for static sofa: ×2 at ℓ=100 → ×7 at ℓ=600).

This job sweeps a size multiplier on a flickr-like generator and times
the sequential sofa engine (pure algorithm, no Spark constant) against
basso; it prints per-step growth factors so the crossover is visible.

Run: ``python jobs/scaling_runtime.py``. Writes results/scaling.md.
"""
import _common  # noqa: F401
import os
import time

from repro.baselines.asso import DEFAULT_BUDGET_BYTES, asso
from repro.core.sofa import SofaParams, sofa_pass
from repro.synth_data import planted_zipf_bipartite

K = 8
SCALES = (1, 2, 4, 8)


def make(scale: int):
    return planted_zipf_bipartite(
        n_left=750 * scale, n_right=500 * scale, k_true=10 * scale, r=15,
        p=0.6, memberships_per_left=0.7, background_deg=5.0,
        degree_zipf=0.9, seed=200 + scale,
    )


def main() -> None:
    rows = [
        "| scale | |U| | |V| | |E| | sofa s | basso s | sofa growth | basso growth |",
        "|---|---|---|---|---|---|---|---|",
    ]
    prev = None
    for scale in SCALES:
        g = make(scale)
        params = SofaParams(
            k=K, c_max=20 * K, mg_capacity=max(3 * 30, int(0.05 * g.n_right)),
            seed=0, skip_kmedians=True,
        )
        t0 = time.perf_counter()
        sofa_pass([a.tolist() for a in g.adj], params, m_hint=g.n_left)
        t_sofa = time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            asso(g.adj, g.n_right, K, tau=0.4, budget_bytes=8 * DEFAULT_BUDGET_BYTES)
            t_basso = time.perf_counter() - t0
        except MemoryError:
            t_basso = float("nan")
        gs = t_sofa / prev[0] if prev else 1.0
        gb = t_basso / prev[1] if prev else 1.0
        rows.append(
            f"| x{scale} | {g.n_left} | {g.n_right} | {g.n_edges} | "
            f"{t_sofa:.2f} | {t_basso:.2f} | x{gs:.2f} | x{gb:.2f} |"
        )
        print(rows[-1], flush=True)
        prev = (t_sofa, t_basso)
    from repro.eval.tables import write_table

    write_table(
        os.path.join(_common.RESULTS_DIR, "scaling.md"),
        "Run-time scaling: sofa (linear in |E|) vs basso (superlinear)",
        "\n".join(rows),
    )


if __name__ == "__main__":
    main()
