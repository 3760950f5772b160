"""Benchmark of the geotagging engine.

    python3 geobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (closed loop, one client):
pages_rollup, convert_points, join_shuffle; see geobench/README.md for
why each exists and what it checks. Inputs come from --seed and are
cached in ./.gbw/ (as is the Ray session's temp dir). Every op's output
is checked against a reference computed without Ray.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from spans installed by
geobench/trace.py. The line before it is a record of the run: versions,
CPU counts, input rows, seed, op counts and the tail percentile used.

``python3 geobench/selftest.py`` runs every workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".gbw")

# Per-op time limit: a stalled execution becomes a failed op.
OP_LIMIT_S = 60.0
# No op starts after RUN_BUDGET_S, and no op runs past OP_DEADLINE_S,
# counted from process start; tear-down then fits in the 180 s a run has.
RUN_BUDGET_S = 120.0
OP_DEADLINE_S = 145.0


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple({m["name"]: m["unit"] for m in bench[k]} for k in ("end_to_end", "per_layer"))


E2E, LAYERS = declared_metrics()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it. Below 21 samples that percentile would not be
    above the median, so the maximum is reported instead."""
    v = sorted(values)
    if len(v) <= 20:
        return v[-1], 100.0
    k = len(v) - 11
    return v[k], 100.0 * (k + 1) / len(v)


def rows_per_s(ops) -> float:
    secs = sum(o.ms for o in ops) / 1e3
    return sum(o.rows for o in ops) / secs if secs else 0.0


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


class Runner:
    """Set-up, warm-up and the measured closed loop of one workload."""

    def __init__(self, wl, started: float):
        self.wl = wl
        self.started = started
        self.ops = []  # every op that returned, warm-up included
        self.attempted = 0
        self.stalled = False

    def call(self, fn):
        from geobench.session import OpTimeout, call_with_limit

        self.attempted += 1
        limit = min(OP_LIMIT_S, OP_DEADLINE_S - (time.monotonic() - self.started))
        try:
            op = call_with_limit(fn, max(limit, 1.0))
        except OpTimeout as e:
            print(f"op failed: {e}", file=sys.stderr)
            self.stalled = True
            return None
        except Exception as e:  # noqa: BLE001 - a failed op is counted, the run goes on
            print(f"op failed: {type(e).__name__}: {e}", file=sys.stderr)
            return None
        if not op.ok:
            print(f"op {op.kind} produced a wrong result", file=sys.stderr)
        self.ops.append(op)
        return op

    def next_op(self):
        i = len(self.ops)
        return self.call(lambda: self.wl.op(i))

    def measure(self, seconds: float, after_op=None):
        """Ops until ``seconds`` of wall time have passed."""
        out, t_end = [], time.monotonic() + seconds
        while not self.stalled:
            op = self.next_op()
            if op is not None:
                out.append(op)
                if after_op:
                    after_op(op)
            now = time.monotonic()
            if now >= t_end or now - self.started > RUN_BUDGET_S:
                break
        return out


def setup(runner: Runner, session) -> tuple[float, list[float]]:
    """Set-up time: Ray start, asset and index loads, and the first
    execution. The convert workload needs no Ray, so its set-up is
    repeated seven times and the median kept."""
    wl = runner.wl
    if session is None:
        parts = []
        for _ in range(7):
            wl.reset_assets()
            t0 = time.perf_counter()
            runner.next_op()
            parts.append(time.perf_counter() - t0)
        return _median(parts), parts
    session.pin()
    t0 = time.perf_counter()
    session.start()
    if hasattr(wl, "put"):
        wl.put()
    runner.next_op()
    return time.perf_counter() - t0, [session.init_s]


def e2e_metrics(measured, setup_s: float) -> tuple[dict, dict]:
    ms = [o.ms for o in measured]
    tail_ms, pct = tail(ms) if ms else (0.0, 0.0)
    vals = {
        "rows_per_s": rows_per_s(measured),
        "op_p50_ms": _median(ms),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s,
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return vals, {"tail_percentile": pct, "tail_samples": len(ms)}


def layer_metrics(name: str, traced, untraced, extras, spans, num_cpus: int) -> dict:
    """Per-layer metrics from the spans of the traced ops and of their
    extras (pages_rollup: enrich-only and checkpoint ops)."""
    from geobench.trace import Ledger

    led = Ledger(spans)
    m = {k: 0.0 for k in LAYERS}
    if traced and untraced:
        m["tracing.overhead_ratio"] = rows_per_s(traced) / rows_per_s(untraced)
    enrich = [o for o in extras if o.kind == "enrich"]
    ckpt = [o for o in extras if o.kind == "checkpoint"]
    windows = [led.window(*o.span_window()) for o in traced]
    # Kernel rates come from the rollup's and enrich-only's blocks; the
    # checkpoint's per-partition blocks are smaller.
    all_spans = [s for w in windows for s in w] + [
        s for o in enrich for s in led.window(*o.span_window())
    ]

    def rate(layers, scale):
        ms = sum(led.layer(all_spans, n)[0] for n in layers)
        rows = led.layer(all_spans, layers[0])[1]
        return ms / (rows / scale) if rows else 0.0

    def ratio(layer, base=None):
        _, rows, cnt = led.layer(all_spans, layer)
        if base:
            rows = led.layer(all_spans, base)[1]
        return cnt / rows if rows else 0.0

    def residual(ops):
        """Per op: wall minus root-span busy time over num_cpus."""
        return [o.ms - led.root_busy_ms(led.window(*o.span_window())) / num_cpus for o in ops]

    res = residual(traced)
    m["infra.residual_ms_per_op"] = _median(res)
    m["infra.residual_share"] = _median(r / o.ms for r, o in zip(res, traced))

    pf = [led.layer(w, "partition_fn") for w in windows]
    m["shuffle.partition_fn_ms"] = _median(p[0] for p in pf)

    def skew(ws):
        out = []
        for w in ws:
            sizes = [s[6] for s in w if s[0] == "partition_fn"]
            if sizes and sum(sizes):
                out.append(max(sizes) / (sum(sizes) / len(sizes)))
        return _median(out)

    if name == "pages_rollup":
        for layer in ("project", "geoid", "cell", "aft", "pip", "knn"):
            m[f"{layer}.ms_per_mrow"] = rate([layer], 1e6)
        m["extract.ms_per_mrow"] = rate(["extract", "filter"], 1e6)
        m["extract.coord_ratio"] = ratio("filter", "extract")
        m["geoid.in_bounds_ratio"] = ratio("geoid")
        m["aft.found_ratio"] = ratio("aft")
        m["pip.matched_ratio"] = ratio("pip")
        m["rollup.ms_per_op"] = _median(t.ms - e.ms for t, e in zip(traced, enrich))
        m["rollup.partial_rows"] = _median(p[1] for p in pf)
        m["shuffle.bucket_skew"] = skew(windows)
        m["checkpoint.write_ms_per_part"] = _median(
            statistics.mean(o.extra["part_wall_ms"]) for o in ckpt
        )
        m["checkpoint.bytes_per_row"] = _median(
            o.extra["disk_bytes"] / o.extra["disk_rows"] for o in ckpt
        )
        m["checkpoint.parts_executed"] = _median(o.extra["parts_executed"] for o in ckpt)
        m["checkpoint.parts_skipped"] = _median(o.extra["parts_skipped"] for o in ckpt)
        m["checkpoint.resume_ms"] = _median(o.extra["resume_ms"] for o in ckpt)
        m["checkpoint.residual_share"] = _median(
            r / o.ms for r, o in zip(residual(ckpt), ckpt)
        )
    if name == "convert_points":
        for metric, layer in (
            ("parse", "parse"), ("transform", "transform"),
            ("geoid", "geoid_height"), ("format", "format"),
        ):
            m[f"convert.{metric}_ms_per_kpt"] = rate([layer], 1e3)
    if name == "join_shuffle":
        for kind, metric in (
            ("hash_join", "join.hash_join_ms"),
            ("flag_broadcast", "join.flag_broadcast_ms"),
            ("flag_partition", "join.flag_partition_ms"),
            ("partition_map", "shuffle.partition_map_ms"),
        ):
            m[metric] = _median((t1 - t0) / 1e6 for t0, t1 in (o.extra["calls"][kind] for o in traced))
        m["join.rows_out"] = _median(o.extra["rows_out"] for o in traced)
        m["shuffle.bucket_skew"] = skew(
            led.window(*o.extra["calls"]["partition_map"]) for o in traced
        )
    return m


def environment(session, name: str, seed: int, rows: int) -> dict:
    import numpy
    import pyarrow
    import ray

    from geobench.session import nproc

    return {
        "nproc": nproc(),
        "num_cpus": session.num_cpus if session else None,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "workload": name,
        "seed": seed,
        "input_rows": rows,
    }


def run(name: str, seed: int, seconds: float, trace: bool, started: float) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    from geobench import workloads
    from geobench.session import RaySession

    rows = workloads.SIZES[name][0]
    wl = workloads.WORKLOADS[name](seed, rows, WORK)
    tracer, worker_env, trace_dir = None, None, None
    if trace:
        from geobench import trace as tr

        root = os.path.join(WORK, "trace")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        trace_dir = tempfile.mkdtemp(dir=root)
        tracer = tr.Tracer(trace_dir)
        if wl.uses_ray:
            tr.install_partition_map(tracer)
            worker_env = tr.worker_env(trace_dir)
        if getattr(wl, "span_udfs", False):
            tr.install_udfs(tracer)
        else:
            tr.install_convert(tracer)
    session = RaySession(WORK, worker_env) if wl.uses_ray else None
    runner = Runner(wl, started)
    extras = []
    try:
        setup_s, setup_parts = setup(runner, session)
        if not trace:
            measured = runner.measure(seconds)
            untraced = traced = []
        else:
            untraced = runner.measure(seconds / 2)
            open(tracer.flag, "w").close()

            def run_extras(op):
                for fn in wl.traced_extras(len(runner.ops)):
                    e = runner.call(fn)
                    if e is not None:
                        extras.append(e)

            after = run_extras if hasattr(wl, "traced_extras") else None
            traced = runner.measure(seconds / 2, after)
            os.unlink(tracer.flag)
            measured = untraced
    finally:
        if session is not None:
            session.close()
        if hasattr(wl, "close"):
            wl.close()
    vals, tail_info = e2e_metrics(measured, setup_s)
    if trace:
        tracer.flush()
        from geobench.trace import load_spans

        num_cpus = session.num_cpus if session else 1
        vals = layer_metrics(name, traced, untraced, extras, load_spans(trace_dir), num_cpus)
        units = LAYERS
    else:
        units = E2E
    failed = runner.attempted - sum(o.ok for o in runner.ops)
    result = {
        "correct": failed == 0 and not runner.stalled,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(vals[k]), "unit": u} for k, u in units.items()},
    }
    record = environment(session, name, seed, wl.rows)
    record.update(
        seconds=seconds,
        trace=int(trace),
        ops_measured=len(measured),
        ops_traced=len(traced),
        setup_parts_s=setup_parts,
        stalled=runner.stalled,
        **tail_info,
        ops=[[o.kind, round(o.ms, 3), o.ok] for o in runner.ops],
    )
    return result, record


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import assets  # noqa: F401
        import engine.pipeline  # noqa: F401
        import geokit  # noqa: F401
        from geobench import workloads
    except ImportError as e:
        print(f"geobench: the engine is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"geobench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    os.makedirs(WORK, exist_ok=True)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), started)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: an abandoned op thread (after a stall)
    # must not keep the process alive.
    os._exit(code)
