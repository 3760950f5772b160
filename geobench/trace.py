"""Spans around the public functions of the engine's layers.

Tracing is installed from this file only: the engine is not edited.
``install_worker`` is the Ray ``worker_process_setup_hook`` of a traced
run; it wraps the enrich layers in every Ray worker process.
``install_partition_map``, ``install_udfs`` and ``install_convert``
wrap layers called from the driver.

A span records (name, pid, id, parent id, start ns, end ns, rows in,
count). Start and end come from ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux), so spans from workers and ops
timed in the driver share one time axis. Spans stay in memory. A
worker appends its spans to ``spans-<pid>.jsonl`` when its outermost
span ends, because Ray may kill worker processes at shutdown without
running exit hooks; the driver writes its own spans at the end.

Wrappers do nothing but call through while the ``on`` flag file in the
trace directory is absent, so one traced run can time untraced ops
and traced ops with the same code installed.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

TRACE_DIR_ENV = "GEOBENCH_TRACE_DIR"


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.flag = os.path.join(trace_dir, "on")
        self.spans: list[list] = []
        self.pid = os.getpid()
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def enabled(self) -> bool:
        return os.path.exists(self.flag)

    def wrap(self, name: str, fn, rows=None, count=None, flush_roots=False):
        """Wrap ``fn`` in a span. ``rows(args)`` gives the rows going in,
        ``count(result)`` a count of the layer's useful outcomes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled():
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._next_id += 1
                sid = self._next_id
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            n_in = rows(args) if rows else 0
            n_out = count(out) if count else 0
            self.spans.append([name, self.pid, sid, parent, t0, t1, n_in, n_out])
            if flush_roots and parent is None:
                self.flush()
            return out

        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []


def _table_rows(args) -> int:
    return args[0].num_rows


def _call_rows(args) -> int:
    # Bound-method wrappers receive (self, batch, ...).
    return args[1].num_rows


def _true_count(col: str):
    def count(out) -> int:
        import pyarrow.compute as pc

        return int(pc.sum(out[col]).as_py() or 0)

    return count


def _matched(out) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.greater_equal(out["muni_id"], 0)).as_py() or 0)


def _process_tracer(trace_dir: str) -> Tracer:
    """The one tracer of this worker process, so span ids stay unique."""
    tracer = _worker_tracers.get(trace_dir)
    if tracer is None:
        tracer = _worker_tracers[trace_dir] = Tracer(trace_dir)
    return tracer


_worker_tracers: dict[str, Tracer] = {}


def worker_env(trace_dir: str) -> dict:
    """Environment that makes every Ray worker run ``install_worker`` at
    start. Set before ``ray.init``, it reaches the workers through the
    raylet, which they inherit it from. A ``runtime_env`` with the same
    hook and variables made a join_shuffle op about 1.5x slower on one
    CPU (17 s without it, 25 s with a no-op hook), so traced runs would
    not measure the system untraced runs do."""
    from ray._private import ray_constants

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    return {
        ray_constants.WORKER_PROCESS_SETUP_HOOK_ENV_VAR: "geobench.trace.install_worker",
        TRACE_DIR_ENV: trace_dir,
        # The hook is imported before Ray puts the driver's sys.path in
        # place, so the worker needs the checkout on its path at start.
        "PYTHONPATH": root + (os.pathsep + path if path else ""),
    }


def install_worker() -> None:
    """Ray worker_process_setup_hook: span the enrich layers."""
    tracer = _process_tracer(os.environ[TRACE_DIR_ENV])
    import engine.extract as ex
    import engine.stages as st

    w = functools.partial(tracer.wrap, flush_roots=True)
    ex.extract_coords = w("extract", ex.extract_coords, rows=_table_rows)
    ex.filter_has_coord = w(
        "filter", ex.filter_has_coord, rows=_table_rows, count=lambda out: out.num_rows
    )
    st.prepare_stage = w("prepare", st.prepare_stage, rows=_table_rows)
    st.project_stage = w("project", st.project_stage, rows=_table_rows)
    st.geoid_stage = w(
        "geoid", st.geoid_stage, rows=_table_rows, count=_true_count("geoid_in_bounds")
    )
    st.cell_stage = w("cell", st.cell_stage, rows=_table_rows)
    st.spatial_join_stage = w("spatial", st.spatial_join_stage, rows=_table_rows)
    st.AftTransform.__call__ = w(
        "aft", st.AftTransform.__call__, rows=_call_rows, count=_true_count("aft_found")
    )
    st.PipJoin.__call__ = w("pip", st.PipJoin.__call__, rows=_call_rows, count=_matched)
    st.KnnJoin.__call__ = w("knn", st.KnnJoin.__call__, rows=_call_rows)


def install_partition_map(tracer: Tracer) -> None:
    """Span the partition functions that ``keyed_partition_map`` runs in
    workers (one call per partition, so rows give the bucket sizes)."""
    import engine.analytics as an
    import engine.shuffle as sh

    original = sh.keyed_partition_map

    def keyed_partition_map(ds, keys, partition_fn, *args, **kwargs):
        if tracer.enabled():
            partition_fn = _SpannedFn(tracer.trace_dir, "partition_fn", partition_fn, _df_rows)
        return original(ds, keys, partition_fn, *args, **kwargs)

    sh.keyed_partition_map = keyed_partition_map
    an.keyed_partition_map = keyed_partition_map


def install_udfs(tracer: Tracer) -> None:
    """Span every function (not callable class) handed to Ray Data's
    ``map_batches`` or ``map_groups``: the engine code Ray workers run
    for a join or shuffle. Ray's own work around those calls (splitting
    blocks into groups, sorting, moving blocks) stays outside."""
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    for cls, name in ((Dataset, "map_batches"), (GroupedData, "map_groups")):
        original = getattr(cls, name)

        def patched(self, fn, *args, _original=original, **kwargs):
            if tracer.enabled() and not isinstance(fn, type):
                fn = _SpannedFn(tracer.trace_dir, "udf", fn)
            return _original(self, fn, *args, **kwargs)

        setattr(cls, name, functools.wraps(original)(patched))


def _df_rows(args) -> int:
    return len(args[0])


class _SpannedFn:
    """A function run by Ray workers, spanned there with a per-process
    tracer."""

    def __init__(self, trace_dir: str, name: str, fn, rows=None):
        self.trace_dir, self.name, self.fn, self.rows = trace_dir, name, fn, rows
        self.__name__ = getattr(fn, "__name__", name)

    def __call__(self, *args, **kwargs):
        span = _process_tracer(self.trace_dir).wrap(
            self.name, self.fn, rows=self.rows, flush_roots=True
        )
        return span(*args, **kwargs)


def install_convert(tracer: Tracer) -> None:
    """Span the layers of ``engine.cli convert``: parse, transform,
    geoid, format. Each is looked up by the CLI at call time."""
    import engine.cli as cli
    import geokit.dms as dms
    import geokit.geoid as geoid
    import geokit.transforms as T

    def n_points(args) -> int:
        return len(args[0])

    cli._parse_point_lines = tracer.wrap("parse", cli._parse_point_lines, rows=n_points)
    for name in (
        "tmxy2fila_wgs", "fila_wgs2tmxy", "gkxy2fila_wgs", "fila_wgs2gkxy",
        "gkxy2tmxy", "tmxy2gkxy", "gkxy2tmxy_aft", "tmxy2gkxy_aft",
        "gkxy2fila_wgs_aft", "fila_wgs2gkxy_aft",
    ):
        setattr(T, name, tracer.wrap("transform", getattr(T, name), rows=n_points))
    geoid.ortho_height = tracer.wrap("geoid_height", geoid.ortho_height, rows=n_points)
    for name in ("format_deg", "format_dms", "format_m"):
        setattr(dms, name, tracer.wrap("format", getattr(dms, name), rows=n_points))


def load_spans(trace_dir: str) -> list[list]:
    spans = []
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(trace_dir, f)) as fh:
                spans += [json.loads(line) for line in fh if line.strip()]
    return spans


class Ledger:
    """Spans reduced over op windows: busy time, rows and counts per
    layer, and busy time of root spans (work no traced caller covers)."""

    def __init__(self, spans: list[list]):
        self.spans = sorted(spans, key=lambda s: s[4])
        self.by_key = {(s[1], s[2]): s for s in spans}

    def window(self, t0: int, t1: int) -> list[list]:
        return [s for s in self.spans if s[4] >= t0 and s[5] <= t1]

    def layer(self, spans: list[list], name: str) -> tuple[float, int, int]:
        """(busy ms, rows in, count) of ``name``, counting only spans
        not nested in a span of the same name."""
        ms, rows, cnt = 0.0, 0, 0
        for s in spans:
            if s[0] != name:
                continue
            parent = self.by_key.get((s[1], s[3]))
            if parent is not None and parent[0] == name:
                continue
            ms += (s[5] - s[4]) / 1e6
            rows += s[6]
            cnt += s[7]
        return ms, rows, cnt

    def root_busy_ms(self, spans: list[list]) -> float:
        return sum((s[5] - s[4]) / 1e6 for s in spans if s[3] is None)
