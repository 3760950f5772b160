"""CLI entry points — the engine's ``gk-slo`` / pipeline runner
(SURVEY.md §3.1; launchable via ``ray job submit -- python -m
engine.cli run ...`` per north_rule).

Commands:

  convert   gk-slo equivalent: read text point lines (stdin or files),
            autodetect layout, apply a transform from the 10-entry
            menu, write formatted lines (the reference's record-stream
            lifecycle, driver-side — for the corpus-scale path use
            `run`).
  run       corpus pipeline: pages parquet in -> enriched parquet out,
            checkpoint-resumable partitions with lineage manifests.
  bench     same as `python bench.py`.

This module owns a Ray session (scripts may init; the library never
does). ray.shutdown() runs at exit so the next process starts clean.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np


def _parse_point_lines(lines: list[str], reverse: bool = False):
    """gk-slo line parser (SURVEY.md §2.3 M1/M2): tokens on
    whitespace/';', optional leading/trailing label, magnitude-based
    layout autodetect (projected ~1e5-1e6 m vs geographic <90/<180),
    decimal or DMS-as-three-numbers."""
    labels, a_vals, b_vals, h_vals, kinds = [], [], [], [], []
    for line in lines:
        raw = line.strip()
        if not raw:
            continue
        toks = raw.replace(";", " ").split()
        label = None
        nums = []
        for t in toks:
            try:
                nums.append(float(t))
            except ValueError:
                label = t if label is None else label
        if len(nums) < 2:
            continue
        if len(nums) >= 6:  # DMS pair: d m s d m s [h]
            from geokit.dms import dms2deg

            a = float(dms2deg(np.array([nums[0]]), np.array([nums[1]]), np.array([nums[2]]))[0])
            b = float(dms2deg(np.array([nums[3]]), np.array([nums[4]]), np.array([nums[5]]))[0])
            h = nums[6] if len(nums) > 6 else 0.0
        else:
            a, b = nums[0], nums[1]
            h = nums[2] if len(nums) > 2 else 0.0
        if reverse:
            a, b = b, a
        kind = "proj" if (abs(a) > 1000.0 or abs(b) > 1000.0) else "geo"
        labels.append(label or "")
        a_vals.append(a)
        b_vals.append(b)
        h_vals.append(h)
        kinds.append(kind)
    return labels, np.array(a_vals), np.array(b_vals), np.array(h_vals), kinds


def cmd_convert(args: argparse.Namespace) -> int:
    import assets
    from geokit import transforms as T
    from geokit.dms import format_deg, format_dms, format_m

    lines = []
    if args.files:
        for f in args.files:
            with open(f) as fh:
                lines += fh.readlines()
    else:
        lines = sys.stdin.readlines()

    labels, a, b, h, kinds = _parse_point_lines(lines, reverse=args.reverse)
    t = args.transform
    # Magnitude autodetect vs the chosen transform's input space
    # (reference gk-slo warns on implausible input; SURVEY.md §2.3 M4).
    expected = "geo" if t in (2, 4, 8) else "proj"
    n_mismatch = sum(1 for k in kinds if k != expected)
    if n_mismatch:
        print(
            f"warning: {n_mismatch}/{len(kinds)} input line(s) look like "
            f"{'projected' if expected == 'geo' else 'geographic'} coordinates "
            f"but -t {t} expects {expected} input",
            file=sys.stderr,
        )
    # Helmert parameter-set selection (reference K12: country-wide
    # best-fit plus regional alternates).
    from geokit.datums import HELMERT_SETS

    hp = HELMERT_SETS[args.helmert_set]
    if t in (7, 9):
        aft_f = assets.load_aft("fwd")
    elif t in (8, 10):
        aft_i = assets.load_aft("inv")
    if t == 1:
        fi, la = T.tmxy2fila_wgs(a, b)
        out = (fi, la, h)
        geo_out = True
    elif t == 2:
        x, y = T.fila_wgs2tmxy(a, b)
        out = (x, y, h)
        geo_out = False
    elif t == 3:
        out = T.gkxy2fila_wgs(a, b, h, params=hp)
        geo_out = True
    elif t == 4:
        out = T.fila_wgs2gkxy(a, b, h, params=hp)
        geo_out = False
    elif t == 5:
        out = T.gkxy2tmxy(a, b, h, params=hp)
        geo_out = False
    elif t == 6:
        out = T.tmxy2gkxy(a, b, h, params=hp)
        geo_out = False
    elif t == 7:
        fi, la, _f = T.gkxy2fila_wgs_aft(a, b, aft_f)
        out = (fi, la, h)
        geo_out = True
    elif t == 8:
        x, y, _f = T.fila_wgs2gkxy_aft(a, b, aft_i)
        out = (x, y, h)
        geo_out = False
    elif t == 9:
        x, y, _f = T.gkxy2tmxy_aft(a, b, aft_f)
        out = (x, y, h)
        geo_out = False
    elif t == 10:
        x, y, _f = T.tmxy2gkxy_aft(a, b, aft_i)
        out = (x, y, h)
        geo_out = False
    else:
        print(f"unknown transform {t}", file=sys.stderr)
        return 2

    o1, o2, o3 = out
    if args.height_mode == "copy":
        o3 = h
    elif args.height_mode == "geoid" and geo_out:
        from geokit.geoid import ortho_height

        o3 = ortho_height(o3, o1, o2, assets.load_geoid(args.geoid))

    sep = args.sep
    if geo_out and args.dms:
        c1, c2 = format_dms(np.atleast_1d(o1)), format_dms(np.atleast_1d(o2))
    elif geo_out:
        c1, c2 = format_deg(np.atleast_1d(o1)), format_deg(np.atleast_1d(o2))
    else:
        c1, c2 = format_m(np.atleast_1d(o1)), format_m(np.atleast_1d(o2))
    c3 = format_m(np.atleast_1d(o3))
    for lab, v1, v2, v3 in zip(labels, c1, c2, c3):
        prefix = f"{lab}{sep}" if lab else ""
        print(f"{prefix}{v1}{sep}{v2}{sep}{v3}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import ray

    _init_ray(args)

    from engine.checkpoint import run_resumable
    from engine.pipeline import enrich_pages

    shards = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not shards:
        print(f"no parquet shards under {args.input}", file=sys.stderr)
        return 2
    metrics = run_resumable(
        shards,
        args.output,
        lambda group: enrich_pages(group, level=args.level),
        shard_group_size=args.shard_group_size,
    )
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    """Composed curation chain over a documents parquet directory:
    quality -> language -> [PII scrub] -> exact dedup -> near-dup ->
    [line dedup] -> decontamination -> split -> partitioned write
    (engine.curation.curate). The ray-job deployment shape matches
    cmd_run (--address auto attaches to a `ray start` head)."""
    import tempfile

    import ray

    _init_ray(args)

    import ray.data as rd

    from engine.curation import curate
    from engine.util import clean_read_schema

    shards = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not shards:
        print(f"no parquet shards under {args.input}", file=sys.stderr)
        return 2
    ds = rd.read_parquet(shards, schema=clean_read_schema(shards[0]))
    queries = ()
    if args.contamination_file:
        with open(args.contamination_file) as f:
            queries = tuple(q.strip() for q in f if q.strip())
    line_dedup = False
    if args.line_dedup == "newline":
        line_dedup = True
    elif args.line_dedup:
        line_dedup = int(args.line_dedup)
    # the checkpoints are spent once out_dir is written
    with tempfile.TemporaryDirectory(prefix="curate-") as cache:
        _, report = curate(
            ds,
            langs=tuple(args.langs.split(",")),
            min_tokens=args.min_tokens,
            min_alpha_milli=args.min_alpha_milli,
            neardup_threshold=args.neardup_threshold,
            scrub_pii=args.scrub_pii,
            line_dedup=line_dedup,
            contamination_queries=queries,
            val_permille=args.val_permille,
            out_dir=args.output,
            cache_dir=cache,
        )
    print(json.dumps(report))
    ray.shutdown()
    return 0


def _init_ray(args: argparse.Namespace) -> None:
    """Shared session policy for the pipeline subcommands: --address
    auto attaches to a `ray start` head (the `ray job submit`
    deployment shape); the default stays a fresh local session with
    the requested CPU count."""
    import ray

    if not ray.is_initialized():
        kw = dict(include_dashboard=False, logging_level="ERROR")
        if args.address == "local":
            kw["num_cpus"] = args.num_cpus
        ray.init(address=args.address, **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_shp(args: argparse.Namespace) -> int:
    """gk-shp equivalent: shapefile in -> menu transform on every
    vertex -> shapefile(s) out, DBF attributes copied (reference
    gk-shp.c lifecycle, SURVEY.md §3.2) — over REAL .shp/.dbf bytes
    (engine/shapefile.py). Z coordinates and multi-part ring structure
    are COPIED through unchanged (the reference's -hc height behavior;
    vertex order and count are preserved, so part offsets stay valid)."""
    import ray

    _init_ray(args)

    import pyarrow as pa

    from engine import shapefile as S
    from engine.geometry import transform_geometry
    from engine.joins import broadcast_lookup

    bases = [os.path.splitext(f)[0] for f in args.files]
    ds = S.read_shapefiles(bases)
    # Vertex-scale payloads (zs/ms/parts/part_types) THREAD THROUGH the
    # flat vertex pipeline (explode carry_cols) and reassemble with the
    # geometry — nothing vertex-sized touches the driver. Only the
    # per-ENTITY scalars (kind + DBF attribute row) ride the broadcast
    # side, the legitimate small-side pattern; for corpora whose entity
    # count alone outgrows a broadcast, use the parquet geometry path.
    carry = tuple(
        c for c in ("zs", "ms", "parts", "part_types") if c in ds.schema().names
    )
    attr_cols = [c for c in ds.schema().names if c not in ("xs", "ys") + carry]
    attrs = pa.Table.from_pandas(ds.select_columns(attr_cols).to_pandas())

    geom = transform_geometry(ds, transform=args.transform, carry_cols=carry).map_batches(
        lambda b: b.drop_columns(["n_vertices"]), batch_format="pyarrow"
    )

    list_types = {
        "xs": pa.float64(),
        "ys": pa.float64(),
        "zs": pa.float64(),
        "ms": pa.float64(),
        "parts": pa.int32(),
        "part_types": pa.int32(),
    }

    def listify(b: pa.Table) -> pa.Table:
        # reassemble emits numpy arrays through pandas blocks; coerce
        # to Arrow list columns for the shapefile writer.
        cols = {
            "entity_id": pa.array(
                b["entity_id"].to_numpy(zero_copy_only=False), pa.int64()
            )
        }
        for name in ("xs", "ys") + carry:
            if name in b.column_names:
                cols[name] = pa.array(b[name].to_pylist(), pa.list_(list_types[name]))
        return pa.table(cols)

    geom = geom.map_batches(listify, batch_format="pyarrow")
    joined = broadcast_lookup(
        geom,
        attrs,
        "entity_id",
        "entity_id",
        [c for c in attrs.column_names if c != "entity_id"],
        how="inner",
    )
    written = S.write_shapefile_partitions(
        joined, args.output, crs=S.MENU_OUT_CRS.get(args.transform)
    )
    print(json.dumps({"written": written}))
    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="geokit-engine")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("convert", help="gk-slo-equivalent text point conversion")
    c.add_argument("-t", "--transform", type=int, required=True, help="1-10 (SURVEY.md §3.1 menu)")
    c.add_argument("files", nargs="*", help="input files (default stdin)")
    c.add_argument("-r", "--reverse", action="store_true", help="swap coordinate order")
    c.add_argument("--dms", action="store_true", help="DMS output for geographic results")
    c.add_argument("-d", "--sep", default=" ", help="output separator")
    c.add_argument("--height-mode", choices=["transform", "copy", "geoid"], default="transform")
    c.add_argument("-g", "--geoid", choices=["slo2000", "egm2008"], default="slo2000")
    from geokit.datums import HELMERT_SETS as _HS

    c.add_argument(
        "--helmert-set",
        choices=sorted(_HS),
        default="slovenia_v1",
        help="Helmert 7-parameter set for menus 3-6 (K12 alternates)",
    )
    c.set_defaults(fn=cmd_convert)

    r = sub.add_parser("run", help="corpus pipeline with checkpoint-resume")
    r.add_argument("--input", required=True, help="pages parquet dir")
    r.add_argument("--output", required=True, help="output dir (partitioned)")
    r.add_argument("--level", type=int, default=12)
    r.add_argument("--shard-group-size", type=int, default=8)
    r.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    r.add_argument("--address", default="local", help='"local" or "auto" (attach to a ray start head)')
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("shp", help="gk-shp-equivalent shapefile conversion")
    s.add_argument("-t", "--transform", type=int, required=True, help="1-10 (SURVEY.md §3.1 menu)")
    s.add_argument("files", nargs="+", help="input .shp paths (same shape kind)")
    s.add_argument("--output", required=True, help="output dir (one .shp per block)")
    s.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    s.add_argument("--address", default="local", help='"local" or "auto" (attach to a ray start head)')
    s.set_defaults(fn=cmd_shp)

    u = sub.add_parser("curate", help="LLM-data curation chain over documents parquet")
    u.add_argument("--input", required=True, help="documents parquet dir (doc_id, text)")
    u.add_argument("--output", required=True, help="output dir ({train,val} parquet)")
    u.add_argument("--langs", default="en", help="comma-separated language allowlist")
    u.add_argument("--min-tokens", type=int, default=5)
    u.add_argument("--min-alpha-milli", type=int, default=500)
    u.add_argument("--neardup-threshold", type=float, default=0.5)
    u.add_argument("--scrub-pii", action="store_true", help="redact email/phone/IP before dedup")
    u.add_argument("--line-dedup", default="", help='"newline" or a token width (off when empty)')
    u.add_argument("--contamination-file", default="", help="file of benchmark queries, one per line")
    u.add_argument("--val-permille", type=int, default=50)
    u.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    u.add_argument("--address", default="local", help='"local" or "auto" (attach to a ray start head)')
    u.set_defaults(fn=cmd_curate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
