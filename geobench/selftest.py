"""Self-test of every workload at tiny input sizes, in under a minute.

    python3 geobench/selftest.py

One traced Ray session runs one op of each of the two Ray workloads
(with pages_rollup's traced extras); then the convert workload runs
one op. Every op's output check must pass, and every metric the
workload feeds must come out non-zero. Exits 0 on success and 1 on the
first failure.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics each workload must report as non-zero.
FED = {
    "pages_rollup": [
        "extract.ms_per_mrow", "extract.coord_ratio", "project.ms_per_mrow",
        "geoid.ms_per_mrow", "geoid.in_bounds_ratio", "cell.ms_per_mrow",
        "aft.ms_per_mrow", "aft.found_ratio", "pip.ms_per_mrow", "pip.matched_ratio",
        "knn.ms_per_mrow", "rollup.ms_per_op", "rollup.partial_rows",
        "infra.residual_ms_per_op", "infra.residual_share", "shuffle.partition_fn_ms",
        "shuffle.bucket_skew", "checkpoint.write_ms_per_part", "checkpoint.bytes_per_row",
        "checkpoint.parts_executed", "checkpoint.parts_skipped", "checkpoint.resume_ms",
        "checkpoint.residual_share",
    ],
    "join_shuffle": [
        "join.hash_join_ms", "join.flag_broadcast_ms", "join.flag_partition_ms",
        "join.rows_out", "shuffle.partition_map_ms", "shuffle.partition_fn_ms",
        "shuffle.bucket_skew", "infra.residual_ms_per_op", "infra.residual_share",
    ],
    "convert_points": [
        "convert.parse_ms_per_kpt", "convert.transform_ms_per_kpt",
        "convert.geoid_ms_per_kpt", "convert.format_ms_per_kpt",
        "infra.residual_ms_per_op",
    ],
}


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.stdout.flush()
    os._exit(1)


def run_ops(name, wl, tracer, session_cpus, run) -> None:
    from geobench.trace import load_spans

    open(tracer.flag, "w").close()
    ops = [wl.op(0)]
    extras = [fn() for fn in wl.traced_extras(0)] if hasattr(wl, "traced_extras") else []
    os.unlink(tracer.flag)
    tracer.flush()
    for op in ops + extras:
        if not op.ok:
            fail(f"{name}: op {op.kind} produced a wrong result")
    m = run.layer_metrics(name, ops, [], extras, load_spans(tracer.trace_dir), session_cpus)
    zero = [k for k in FED[name] if not m[k] > 0]
    if zero:
        fail(f"{name}: no value for {zero}")
    print(f"selftest: {name} ok ({len(ops) + len(extras)} ops)", flush=True)


def main() -> None:
    sys.path.insert(0, ROOT)
    from geobench import run, trace, workloads
    from geobench.session import RaySession

    started = time.monotonic()
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = tempfile.mkdtemp(dir=work)
    tracer = trace.Tracer(trace_dir)
    trace.install_partition_map(tracer)
    tiny = {n: workloads.WORKLOADS[n](1, sizes[1], run.WORK) for n, sizes in workloads.SIZES.items()}
    session = RaySession(work, trace.worker_env(trace_dir))
    try:
        session.start()
        tiny["join_shuffle"].put()
        run_ops("pages_rollup", tiny["pages_rollup"], tracer, session.num_cpus, run)
        trace.install_udfs(tracer)
        run_ops("join_shuffle", tiny["join_shuffle"], tracer, session.num_cpus, run)
    finally:
        session.close()
        tiny["pages_rollup"].close()
    trace.install_convert(tracer)
    run_ops("convert_points", tiny["convert_points"], tracer, 1, run)
    shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: passed in {time.monotonic() - started:.1f} s")


if __name__ == "__main__":
    main()
    sys.stdout.flush()
    os._exit(0)
