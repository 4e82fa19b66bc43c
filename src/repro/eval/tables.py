"""Table rendering + the cached full-grid sweep behind jobs/tables.py.

``run_full_grid`` executes every (dataset, algorithm, k) cell of the
paper's Tables 2–5 through the harness and caches the rows as JSON under
``results/cells.json`` — Tables 2, 3, 4 and 5 are four projections of
the same runs (exactly as in the paper, where one experiment yields
gain, recall, time and memory). Jobs re-render from the cache; delete
the file to force a re-run.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, List, Optional

from pyspark.sql import SparkSession

from repro.eval.datasets import DATASET_NAMES, K_GRID
from repro.eval.harness import ALGORITHMS, CellResult, run_cell

DEFAULT_CACHE = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results", "cells.json")


def run_full_grid(
    spark: SparkSession,
    *,
    cache_path: Optional[str] = DEFAULT_CACHE,
    datasets=DATASET_NAMES,
    k_grid=K_GRID,
    algorithms=ALGORITHMS,
    verbose: bool = True,
) -> List[CellResult]:
    """All cells of Tables 2–5 (cached)."""
    if cache_path and os.path.exists(cache_path):
        with open(cache_path) as f:
            return [CellResult(**row) for row in json.load(f)]
    cells: List[CellResult] = []
    for k in k_grid:
        for ds in datasets:
            for algo in algorithms:
                cell = run_cell(spark, ds, algo, k)
                cells.append(cell)
                if verbose:
                    print(
                        f"[grid] k={k} {ds:8s} {algo:10s} gain={cell.gain:.4f} "
                        f"recall={cell.recall:.4f} t={cell.seconds:.1f}s "
                        f"mem={cell.memory_bytes / 2**20:.2f}MB {cell.note}",
                        flush=True,
                    )
    if cache_path:
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        with open(cache_path, "w") as f:
            json.dump([asdict(c) for c in cells], f, indent=1)
    return cells


def cells_by_key(cells: List[CellResult]) -> Dict[tuple, CellResult]:
    return {(c.k, c.dataset, c.algorithm): c for c in cells}


def render_metric_table(
    cells: List[CellResult],
    metric: str,
    *,
    datasets=DATASET_NAMES,
    k_grid=K_GRID,
    algorithms=ALGORITHMS,
    fmt=lambda v: f"{v:.4f}",
) -> str:
    """Markdown table in the paper's layout: k x algorithm rows, dataset
    columns. ``metric`` is a CellResult attribute name."""
    idx = cells_by_key(cells)
    lines = ["| k | Algorithm | " + " | ".join(datasets) + " |"]
    lines.append("|---|---|" + "---|" * len(datasets))
    for k in k_grid:
        for algo in algorithms:
            vals = []
            for ds in datasets:
                c = idx.get((k, ds, algo))
                if c is None:
                    vals.append("?")
                elif not c.ok:
                    vals.append("—")
                else:
                    vals.append(fmt(getattr(c, metric)))
            lines.append(f"| {k} | {algo} | " + " | ".join(vals) + " |")
    return "\n".join(lines)


def write_table(path: str, title: str, body: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(f"# {title}\n\n{body}\n")
    print(f"wrote {path}")
    print(body)
