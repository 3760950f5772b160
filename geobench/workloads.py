"""The four workloads. Each op calls the engine's public API on seeded
inputs and checks the output against a reference computed without Ray.

An op returns an ``Op``: its kind, input rows, wall time and whether
its output was correct. Checks run after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from geobench import inputs

# Input sizes (rows) per workload at full and at self-test scale.
SIZES = {
    "pages_rollup": (200_000, 8_000),
    "convert_points": (2_000, 300),  # points per menu
    "join_shuffle": (60_000, 4_000),
}


@dataclass
class Op:
    kind: str
    rows: int
    t0: int
    t1: int
    ok: bool
    extra: dict = field(default_factory=dict)
    window: tuple[int, int] | None = None

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6

    def span_window(self) -> tuple[int, int]:
        """Where this op's spans lie (its timed parts may not be contiguous)."""
        return self.window or (self.t0, self.t1)


def _collect(ds):
    """Execute ``ds`` and return its rows as one Arrow table."""
    import pyarrow as pa
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables, promote_options="default") if tables else None


class PagesRollup:
    """cell_rollup(enrich_pages(shards)), collected to the driver.

    A traced run follows each traced op with the same shards'
    enrich-only execution and a checkpoint op (``traced_extras``), so
    the rollup and the checkpoint writer get per-layer figures too."""

    uses_ray = True

    def __init__(self, seed: int, rows: int, work_dir: str):
        self.path = inputs.ensure("pages", seed, rows, work_dir)
        self.meta = inputs.meta(self.path)
        self.shards = sorted(
            os.path.join(self.path, f) for f in os.listdir(self.path) if f.endswith(".parquet")
        )
        ref = np.load(os.path.join(self.path, "reference.npz"))
        self.ref_cell, self.ref_cnt = ref["cell"], ref["cnt"]
        self.rows = self.meta["rows"]
        self.checkpoint = Checkpoint(self.shards, self.meta, work_dir)

    def op(self, i: int) -> Op:
        from engine.pipeline import cell_rollup, enrich_pages

        t0 = time.perf_counter_ns()
        out = _collect(cell_rollup(enrich_pages(self.shards)))
        t1 = time.perf_counter_ns()
        return Op("rollup", self.rows, t0, t1, self.check(out))

    def enrich_only(self) -> Op:
        """The same op's enrich lineage alone, to separate rollup cost."""
        from engine.pipeline import enrich_pages

        t0 = time.perf_counter_ns()
        n = enrich_pages(self.shards).count()
        t1 = time.perf_counter_ns()
        return Op("enrich", self.rows, t0, t1, n == self.meta["n_coord"])

    def traced_extras(self, i: int):
        return [self.enrich_only, lambda: self.checkpoint.op(i)]

    def close(self) -> None:
        self.checkpoint.close()

    def check(self, out) -> bool:
        if out is None:
            return False
        out = out.sort_by("cell")
        cnt = out["cnt"].to_numpy()
        return (
            int(cnt.sum()) == self.meta["n_coord"]
            and np.array_equal(out["cell"].to_numpy(), self.ref_cell)
            and np.array_equal(cnt, self.ref_cnt)
        )


class Checkpoint:
    """run_resumable(..., enrich_pages) into a fresh directory, then a
    resume after one partition's manifest is deleted. One op is the
    pair, so every op does the same work."""

    shard_group_size = 2

    def __init__(self, shards: list[str], meta: dict, work_dir: str):
        self.shards, self.meta = shards, meta
        self.parts = len(shards) // self.shard_group_size
        self.rows = meta["rows"]
        self.out_root = os.path.join(work_dir, "checkpoint")
        shutil.rmtree(self.out_root, ignore_errors=True)

    def op(self, i: int) -> Op:
        from engine.checkpoint import run_resumable
        from engine.pipeline import enrich_pages

        shutil.rmtree(self.out_root, ignore_errors=True)
        out = os.path.join(self.out_root, "op")
        t0 = time.perf_counter_ns()
        full = run_resumable(self.shards, out, enrich_pages, self.shard_group_size)
        t1 = time.perf_counter_ns()
        ok = full["executed"] == self.parts and self._disk_ok(out)
        redo = i % self.parts
        os.unlink(os.path.join(out, "_manifest", f"part-{redo:05d}.json"))
        t2 = time.perf_counter_ns()
        resume = run_resumable(self.shards, out, enrich_pages, self.shard_group_size)
        t3 = time.perf_counter_ns()
        ok = ok and resume["executed"] == 1 and resume["skipped_complete"] == self.parts - 1
        ok = ok and self._disk_ok(out)
        op = Op("checkpoint", self.rows + self.rows // self.parts, t0, t1 + (t3 - t2), ok)
        op.window = (t0, t3)
        op.extra = {
            "resume_ms": (t3 - t2) / 1e6,
            "parts_executed": resume["executed"],
            "parts_skipped": resume["skipped_complete"],
            **self._disk_stats(out),
        }
        return op

    def _disk_stats(self, out: str) -> dict:
        import pyarrow.parquet as pq

        rows = nbytes = 0
        for part in range(self.parts):
            d = os.path.join(out, f"part={part:05d}")
            for f in os.listdir(d):
                if f.endswith(".parquet"):
                    rows += pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                    nbytes += os.path.getsize(os.path.join(d, f))
        manifests = []
        for part in range(self.parts):
            with open(os.path.join(out, "_manifest", f"part-{part:05d}.json")) as f:
                manifests.append(json.load(f))
        return {
            "disk_rows": rows,
            "disk_bytes": nbytes,
            "manifest_rows": sum(m["rows_out"] for m in manifests),
            "part_wall_ms": [m["wall_sec"] * 1e3 for m in manifests],
        }

    def _disk_ok(self, out: str) -> bool:
        s = self._disk_stats(out)
        return s["disk_rows"] == s["manifest_rows"] == self.meta["n_coord"]

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


class ConvertPoints:
    """engine.cli.main(["convert", "-t", t, file, "--height-mode",
    "geoid"]) with stdout captured. Ray is not used. One op converts the
    same number of points with each of menus 1-10, so every op does the
    same work (per-menu times differ by up to 2x)."""

    uses_ray = False
    # Projected and height outputs within 1 mm of the reference;
    # geographic output within 1e-8 degrees (at most 1.1 mm on the
    # ground) of the reference and, for menus 1 and 3, of the
    # generator's true points (see inputs.make_convert).
    tol_m = 1e-3
    tol_deg = 1e-8

    def __init__(self, seed: int, rows: int, work_dir: str):
        self.path = inputs.ensure("convert", seed, rows, work_dir)
        self.rows = 10 * inputs.meta(self.path)["rows"]
        self.expected = dict(np.load(os.path.join(self.path, "expected.npz")))

    def op(self, i: int) -> Op:
        from engine.cli import main

        outputs, t0 = [], time.perf_counter_ns()
        for menu in range(1, 11):
            buf = io.StringIO()
            argv = inputs.convert_argv(menu, os.path.join(self.path, f"menu-{menu:02d}.txt"))
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            outputs.append((menu, rc, buf))
        t1 = time.perf_counter_ns()
        ok = all(rc == 0 and self.check(menu, buf.getvalue()) for menu, rc, buf in outputs)
        return Op("menus1-10", self.rows, t0, t1, ok)

    def check(self, menu: int, text: str) -> bool:
        vals = np.array(text.split(), dtype=object).reshape(-1, 4)[:, 1:].astype(np.float64)
        if len(vals) != self.rows // 10:
            return False
        e = self.expected
        tol = self.tol_deg if menu in inputs.GEO_OUT_MENUS else self.tol_m
        want = [(0, e[f"m{menu}a"], tol), (1, e[f"m{menu}b"], tol), (2, e[f"m{menu}c"], self.tol_m)]
        if menu in (1, 3):
            want += [(0, e[f"m{menu}fi"], tol), (1, e[f"m{menu}la"], tol)]
        return all(np.all(np.abs(vals[:, c] - w) <= t) for c, w, t in want)

    def reset_assets(self) -> None:
        """Drop the per-process asset caches so set-up loads them again."""
        import assets

        for name in ("load_geoid", "load_aft", "load_municipalities", "load_control_points"):
            getattr(assets, name).cache_clear()


class JoinShuffle:
    """One op runs four calls in turn on url-keyed string tables with
    Zipf-skewed domains: hash_join, flag_join on its broadcast route,
    flag_join on its partition route, and keyed_partition_map. Every
    op does the same work; the calls take from 1x to 3x each other's
    time, so a median over single calls would jump between them."""

    uses_ray = True
    # The join and shuffle layers run as functions handed to Ray Data;
    # traced runs span those (trace.install_udfs).
    span_udfs = True
    kinds = ("hash_join", "flag_broadcast", "flag_partition", "partition_map")

    def __init__(self, seed: int, rows: int, work_dir: str):
        import pyarrow.parquet as pq

        self.path = inputs.ensure("joins", seed, rows, work_dir)
        self.meta = inputs.meta(self.path)
        self.rows = len(self.kinds) * self.meta["rows"]
        self.probe = pq.read_table(os.path.join(self.path, "probe.parquet"))
        self.build = pq.read_table(os.path.join(self.path, "build.parquet"))
        self.expected = dict(np.load(os.path.join(self.path, "expected.npz"), allow_pickle=False))

    def put(self) -> None:
        """Ship both tables to the object store, 4 blocks each."""
        import ray

        def blocks(t, n=4):
            step = -(-t.num_rows // n)
            return [ray.put(t.slice(i, step)) for i in range(0, t.num_rows, step)]

        self.probe_refs = blocks(self.probe)
        self.build_refs = blocks(self.build)
        self.key_refs = blocks(self.build.select(["url"]))
        del self.probe, self.build

    def call(self, kind: str):
        import ray.data as rd

        from engine.analytics import flag_join
        from engine.joins import hash_join
        from engine.shuffle import keyed_partition_map

        probe = rd.from_arrow_refs(self.probe_refs)
        if kind == "hash_join":
            return _collect(hash_join(probe, rd.from_arrow_refs(self.build_refs), "url"))
        if kind == "partition_map":
            return _collect(keyed_partition_map(probe, ["domain"], inputs.domain_stats, 16))
        kw = {"broadcast_max": self.meta["build_rows"] // 2} if kind == "flag_partition" else {}
        keys = rd.from_arrow_refs(self.key_refs)
        return _collect(flag_join(probe, keys, "url", "url", "known", **kw))

    def op(self, i: int) -> Op:
        calls, ok, rows_out = {}, True, 0
        for kind in self.kinds:
            t0 = time.perf_counter_ns()
            out = self.call(kind)
            calls[kind] = (t0, time.perf_counter_ns())
            ok = self.check(kind, out) and ok
            if kind == "hash_join" and out is not None:
                rows_out = out.num_rows
        busy = sum(t1 - t0 for t0, t1 in calls.values())
        t_first = calls[self.kinds[0]][0]
        op = Op("calls", self.rows, t_first, t_first + busy, ok)
        op.window = (t_first, calls[self.kinds[-1]][1])
        op.extra = {"calls": calls, "rows_out": rows_out}
        return op

    def check(self, kind: str, out) -> bool:
        e = self.expected
        if out is None:
            return False
        if kind == "hash_join":
            out = out.sort_by("pid")
            return np.array_equal(out["pid"].to_numpy(), e["join_pid"]) and np.array_equal(
                np.asarray(out["title"].to_pylist(), dtype=object).astype(str), e["join_title"]
            )
        if kind == "partition_map":
            out = out.sort_by("domain")
            return (
                np.array_equal(np.asarray(out["domain"].to_pylist(), dtype=object).astype(str), e["dom"])
                and np.array_equal(out["n"].to_numpy(), e["dom_n"])
                and np.array_equal(out["ref_bytes"].to_numpy(), e["dom_bytes"])
            )
        out = out.sort_by("pid")
        return out.num_rows == len(e["flags"]) and np.array_equal(
            out["known"].to_numpy(zero_copy_only=False), e["flags"]
        )


WORKLOADS = {
    "pages_rollup": PagesRollup,
    "convert_points": ConvertPoints,
    "join_shuffle": JoinShuffle,
}
