"""SOFA pipeline benchmark.

Usage, from the root of a checkout::

    python3 sofabench/run.py --workload movie-sofa-auto --seed 0 --seconds 10 --trace 0

One run starts a Spark ``local[4]`` session, builds the workload's inputs
from ``--seed``, runs one warm-up operation and then times operations
for ``--seconds`` (at least one). Every operation's output is checked;
a failed check counts the operation as failed. With ``--trace 1`` one
more operation runs with spans and engine counters on and the run
reports the per-layer metrics instead of the end-to-end ones.

Human-readable detail goes to standard output as lines starting with
``#``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Metric names and units come from
``BENCHMARK.json``. See ``sofabench/README.md`` for the workloads.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shlex
import shutil
import sys
import time
import traceback
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SPARK_MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
STREAM_BUILDS = 3  # set-up repeats the stream-input build and reports the median
WORKLOADS = ("movie-sofa-auto", "fig1-stream", "wiki-sofa")


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def _configure_environment(work: str) -> None:
    """Keep Spark, its Python workers and temp files inside the checkout."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", SPARK_MASTER,
        "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.sql.shuffle.partitions={SHUFFLE_PARTITIONS}",
        "--conf", "spark.sql.execution.arrow.pyspark.enabled=true",
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={os.path.join(work, 'warehouse')}"),
        "pyspark-shell",
    ])


def _start_spark():
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("sofabench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and with it the Python
    workers it started) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=120)


def _settle(spark) -> None:
    """Collect garbage in the driver and the JVM so that no operation
    pays for a collection of its predecessor's garbage."""
    gc.collect()
    spark.sparkContext._jvm.System.gc()


def _metric_specs(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(values: dict, trace: bool) -> dict:
    units = _metric_specs(trace)
    missing, extra = set(units) - set(values), set(values) - set(units)
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def run(args, work: str) -> dict:
    import workloads as W
    from tracer import EngineCounters, Tracer

    clock = time.perf_counter
    attempted = failed = 0

    t = clock()
    spark = _start_spark()
    session_s = clock() - t
    try:
        wl = W.make(args.workload, spark, args.seed, ROOT, work)
        t = clock()
        wl.generate()
        generate_s = clock() - t
        builds = []
        for _ in range(STREAM_BUILDS):
            t = clock()
            wl.build_stream()
            builds.append(clock() - t)
        t = clock()
        wl.prepare()
        reference_s = clock() - t
        t = clock()
        warm = wl.warmup()
        warmup_s = clock() - t
        log(f"workload {args.workload} seed {args.seed}: {json.dumps(wl.describe())}")

        def gate(out, checks) -> bool:
            nonlocal failed
            try:
                for check in checks:
                    check(out)
                return True
            except W.GateFailure as e:
                failed += 1
                log(f"FAILED check: {e}")
                return False

        attempted += 1
        gate(warm, (wl.check, wl.check_reference))
        setup_s = session_s + generate_s + median(builds) + reference_s + warmup_s

        times, last, timed = [], None, 0
        start = clock()
        while timed == 0 or clock() - start < args.seconds:
            timed += 1
            attempted += 1
            _settle(spark)
            t = clock()
            try:
                out = wl.op(W.NULL_TRACER)
            except Exception:
                failed += 1
                log("FAILED operation:\n" + traceback.format_exc())
                continue
            dt = clock() - t
            if gate(out, (wl.check,)):
                times.append(dt)
                last = out
        log(f"operations: {len(times)} passed of {timed} timed; "
            f"run_s samples {[round(x, 4) for x in times]}")
        if not times:
            raise RuntimeError("no timed operation passed its check")

        if not args.trace:
            values = {
                "run_s": median(times),
                "edges_per_s": wl.edges / median(times),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            values.update(wl.output_metrics(last))
        else:
            # a traced operation that fails its check raises: no partial report
            tracer, counters = Tracer(), EngineCounters()
            attempted += 1
            _settle(spark)
            _, values = wl.traced_run(tracer, counters, log)
            root = next(i for i, s in enumerate(tracer.spans) if s.name == "op")
            op_s = tracer.spans[root].end - tracer.spans[root].start
            values.update({
                "trace.run_s": op_s,
                "trace.overhead_s": op_s - median(times),
                "trace.unaccounted_share": tracer.self_times()[root] / op_s,
                "setup.session_s": session_s,
                "setup.generate_s": generate_s,
                "setup.stream_build_s": median(builds),
                "setup.reference_s": reference_s,
                "setup.warmup_s": warmup_s,
            })
            for name, agg in sorted(tracer.by_name().items()):
                log(f"span {name}: count={agg['count']} total_s={agg['total_s']:.4f} "
                    f"self_s={agg['self_s']:.4f}")
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.to_json(), "metrics": values}, f, indent=1)
            log(f"spans written to {os.path.relpath(path, ROOT)}")
    finally:
        _stop_spark(spark)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _report(values, bool(args.trace))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"sofabench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    _configure_environment(work)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
