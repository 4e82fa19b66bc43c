"""Distributed SOFA over Spark (DESIGN.md §2, paper's conclusion sketch).

The paper notes that SOFA's building blocks — coreset-style weighted
centers and mergeable Misra–Gries sketches — extend to distributed
settings. This module implements that composition as a DataFrame
physical operator:

1. **Partition pass** (``mapInPandas``): each partition of the vertex
   stream runs the sequential :class:`~repro.core.sofa.SofaEngine` over
   its rows (ordered by ``u``, the arrival order) and emits its
   surviving weighted centers with serialized sketches — a mergeable
   coreset of at most ``c_max`` rows per partition.
2. **Driver merge**: the collected coresets (tiny: ``partitions * c_max``
   rows) are re-streamed through the engine via
   :func:`~repro.core.sofa.merge_center_states`, then the standard
   postprocessing (k-Medians + thresholding) runs.

The result type is the same ``SofaResult`` as the sequential engine, so
the second pass and all metrics are shared. A true JVM operator is out
of scope (DESIGN.md §6): the state is per-partition and mergeable, which
is exactly what mapInPandas + a driver-side merge expresses.
"""
from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.mg import MisraGries
from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
)

_CORESET_SCHEMA = (
    "support array<bigint>, weight double, "
    "mg_keys array<bigint>, mg_vals array<double>, mg_total double"
)


def _partition_runner(params: SofaParams):
    """Build the mapInPandas function: run a SofaEngine over the
    partition's rows (sorted by u = arrival order) and emit its centers."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        dfs = list(batches)
        if not dfs:
            return
        rows = pd.concat(dfs, ignore_index=True)
        if rows.empty:
            return
        rows = rows.sort_values("u")
        eng = SofaEngine(params, m_hint=len(rows))
        for nbrs in rows["neighbors"]:
            eng.push(nbrs)
        out = {
            "support": [],
            "weight": [],
            "mg_keys": [],
            "mg_vals": [],
            "mg_total": [],
        }
        for c in eng.centers:
            tuples = c.sketch.to_tuples()
            out["support"].append([int(v) for v in c.support])
            out["weight"].append(float(c.weight))
            out["mg_keys"].append([int(k) for k, _ in tuples])
            out["mg_vals"].append([float(v) for _, v in tuples])
            out["mg_total"].append(float(c.sketch.total))
        yield pd.DataFrame(out)

    return run


def collect_partition_coresets(
    stream_df: DataFrame, params: SofaParams
) -> list[CenterState]:
    """First stage: run SOFA inside each partition of ``stream_df`` (its
    partitioning is the caller's, see ``to_spark_stream``), return the
    union of the per-partition coresets as CenterState objects on the
    driver."""
    rows = stream_df.mapInPandas(_partition_runner(params), schema=_CORESET_SCHEMA).collect()
    states = []
    for r in rows:
        sk = MisraGries.from_tuples(
            params.mg_capacity,
            list(zip(r["mg_keys"], r["mg_vals"])),
            r["mg_total"],
        )
        states.append(
            CenterState(
                support=np.asarray(r["support"], dtype=np.int64),
                weight=float(r["weight"]),
                sketch=sk,
            )
        )
    return states


def distributed_sofa(
    stream_df: DataFrame,
    params: SofaParams,
    *,
    m_hint: Optional[int] = None,
) -> SofaResult:
    """Full distributed first pass: partition-level SOFA, driver merge,
    shared postprocessing. Returns the same SofaResult as sofa_pass."""
    states = collect_partition_coresets(stream_df, params)
    # stream order across partitions: keep deterministic by sorting on
    # (weight desc) so heavy coreset centers are seen first — improves
    # merge stability and is permitted because coreset order is not part
    # of the streaming contract once the first pass is done.
    states.sort(key=lambda s: -s.weight)
    return merge_center_states(states, params, m_hint=m_hint)
