"""Tests: gk-shp geometry pipeline, checkpoint-resume with lineage,
CLI convert (gk-slo equivalent), relational join helpers."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from engine.geometry import transform_geometry
from geokit import transforms as T


def _entity_table() -> pa.Table:
    rng = np.random.default_rng(2)
    ents, xs, ys = [], [], []
    for e in range(12):
        n = int(rng.integers(3, 8))
        xs.append(rng.uniform(80000, 180000, n))
        ys.append(rng.uniform(400000, 600000, n))
        ents.append(e)
    return pa.table(
        {
            "entity_id": pa.array(np.array(ents, dtype=np.int64)),
            "xs": pa.array([list(v) for v in xs], pa.list_(pa.float64())),
            "ys": pa.array([list(v) for v in ys], pa.list_(pa.float64())),
        }
    )


@pytest.mark.usefixtures("ray_session")
def test_geometry_transform_matches_direct_kernel():
    t = _entity_table()
    out = transform_geometry(rd.from_arrow(t), transform=5).to_pandas()
    out = out.set_index("entity_id").sort_index()
    for e in range(12):
        x = np.asarray(t["xs"][e].as_py())
        y = np.asarray(t["ys"][e].as_py())
        ex, ey, _ = T.gkxy2tmxy(x, y)
        gx = np.asarray(out.loc[e, "xs"])
        gy = np.asarray(out.loc[e, "ys"])
        assert np.allclose(gx, ex, atol=1e-9)
        assert np.allclose(gy, ey, atol=1e-9)
        assert out.loc[e, "n_vertices"] == len(x)


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume_skips_completed():
    from engine.checkpoint import completed_partitions, run_resumable

    src = "/tmp/geokit_ckpt_src"
    out = "/tmp/geokit_ckpt_out"
    shutil.rmtree(src, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(src)
    for i in range(4):
        pq.write_table(
            pa.table({"v": pa.array(np.arange(10) + i * 10)}), f"{src}/s{i}.parquet"
        )
    shards = sorted(os.path.join(src, f) for f in os.listdir(src))

    def pipe(group):
        return rd.read_parquet(group).map_batches(
            lambda b: b.append_column("v2", pa.compute.multiply(b["v"], 2)),
            batch_format="pyarrow",
        )

    m1 = run_resumable(shards, out, pipe, shard_group_size=2)
    assert m1["executed"] == 2 and m1["skipped_complete"] == 0
    assert completed_partitions(out) == {0, 1}
    # Manifests carry lineage + metrics.
    man = json.load(open(f"{out}/_manifest/part-00000.json"))
    assert man["src_files"] == shards[:2]
    assert man["rows_out"] == 20
    # Resume: everything skipped, nothing recomputed.
    m2 = run_resumable(shards, out, pipe, shard_group_size=2)
    assert m2["executed"] == 0 and m2["skipped_complete"] == 2
    # Partial failure sim: delete one manifest -> exactly that partition reruns.
    os.unlink(f"{out}/_manifest/part-00001.json")
    m3 = run_resumable(shards, out, pipe, shard_group_size=2)
    assert m3["executed"] == 1 and m3["skipped_complete"] == 1
    # Output rows are complete and not double-counted.
    total = pq.read_table(f"{out}/part=00000").num_rows + pq.read_table(f"{out}/part=00001").num_rows
    assert total == 40


def test_cli_convert_roundtrip(tmp_path):
    """Drive the gk-slo-equivalent CLI end-to-end: transform 2
    (fi/la -> D96 grid), then 1 back, label + height preserved."""
    inp = tmp_path / "pts.txt"
    inp.write_text("pt1 46.05 14.50 300.0\npt2 46.50 15.60 250.0\n")
    env = dict(os.environ)
    r = subprocess.run(
        [sys.executable, "-m", "engine.cli", "convert", "-t", "2", str(inp)],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=env,
        check=True,
    )
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 2
    lab, x, y, h = lines[0].split()
    assert lab == "pt1"
    from geokit.tm import tm_fwd
    from geokit.datums import D96_TM

    ex, ey = tm_fwd(np.array([46.05]), np.array([14.50]), D96_TM)
    assert abs(float(x) - ex[0]) < 1e-3
    assert abs(float(y) - ey[0]) < 1e-3
    assert abs(float(h) - 300.0) < 1e-9

    # Back: grid -> geographic, DMS output.
    inp2 = tmp_path / "pts2.txt"
    inp2.write_text(f"pt1 {x} {y} {h}\n")
    r2 = subprocess.run(
        [sys.executable, "-m", "engine.cli", "convert", "-t", "1", "--dms", str(inp2)],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=env,
        check=True,
    )
    assert "46°" in r2.stdout and "14°" in r2.stdout


def test_cli_convert_height_modes(tmp_path):
    inp = tmp_path / "p.txt"
    inp.write_text("97512.3 462318.9 400.0\n")
    base = [sys.executable, "-m", "engine.cli", "convert", "-t", "3", str(inp)]
    r_t = subprocess.run(base, capture_output=True, text=True, cwd="/root/repo", check=True)
    r_c = subprocess.run(
        base + ["--height-mode", "copy"], capture_output=True, text=True, cwd="/root/repo", check=True
    )
    r_g = subprocess.run(
        base + ["--height-mode", "geoid"], capture_output=True, text=True, cwd="/root/repo", check=True
    )
    h_t = float(r_t.stdout.split()[2])
    h_c = float(r_c.stdout.split()[2])
    h_g = float(r_g.stdout.split()[2])
    assert abs(h_c - 400.0) < 1e-9  # -hc copies input height
    assert h_g < h_t - 30  # geoid undulation ~45 m subtracted


@pytest.mark.usefixtures("ray_session")
def test_hash_join_matches_pandas():
    from engine.joins import hash_join

    rng = np.random.default_rng(3)
    left = pa.table(
        {"k": pa.array(rng.integers(0, 50, 500, dtype=np.int64)), "lv": pa.array(rng.random(500))}
    )
    right = pa.table(
        {"k": pa.array(np.arange(0, 40, dtype=np.int64)), "rv": pa.array(np.arange(40) * 10.0)}
    )
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right), key="k").to_pandas()
    exp = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    assert len(got) == len(exp)
    g = got.sort_values(["k", "lv"]).reset_index(drop=True)
    e = exp.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g[["k", "lv", "rv"]], e[["k", "lv", "rv"]])


@pytest.mark.usefixtures("ray_session")
def test_semi_anti_filter():
    from engine.joins import semi_filter

    t = pa.table({"k": pa.array(np.arange(100, dtype=np.int64))})
    keys = np.arange(0, 100, 2)
    semi = semi_filter(rd.from_arrow(t), keys, "k").to_pandas()
    anti = semi_filter(rd.from_arrow(t), keys, "k", anti=True).to_pandas()
    assert sorted(semi.k) == list(range(0, 100, 2))
    assert sorted(anti.k) == list(range(1, 100, 2))


@pytest.mark.usefixtures("ray_session")
def test_salted_groupby_count_matches_plain():
    from engine.shuffle import salted_groupby_count

    rng = np.random.default_rng(1)
    t = pa.table({"cell": pa.array(rng.integers(0, 7, 5000, dtype=np.int64))})
    out = salted_groupby_count(rd.from_arrow(t), "cell", salts=8).to_pandas()
    exp = pd.Series(t["cell"].to_numpy()).value_counts().sort_index()
    got = out.set_index("cell").cnt.sort_index()
    assert (got.values == exp.values).all()


@pytest.mark.usefixtures("ray_session")
def test_grouped_count_sums_salted_matches_unsalted_on_hot_key(monkeypatch):
    """Hot-key salting (VERDICT-r3 #3): one key holding 50% of all
    rows — unsalted, salts=8 and "auto" give IDENTICAL counts/int-sums/
    mins/maxs on both merge routes (one task, and the partitioned
    merge forced by pinning MERGE_PARTITION_ROWS to 1) and match the
    pandas oracle; float means agree to relative 1e-12 (the pre-merge
    reorders float partial addition). A spy on keyed_partition_map
    asserts which route ran: the salted pre-merge only runs on the
    partitioned route, so without the pin it would go untested here."""
    import engine.shuffle as sh
    from engine.shuffle import choose_salts, grouped_count_sums, sampled_key_histogram

    rng = np.random.default_rng(5)
    n = 100_000
    hot = np.zeros(n // 2, dtype=np.int64)  # key 0 = 50% of rows
    cold = rng.integers(1, 2_000, n - n // 2, dtype=np.int64)
    keys = np.concatenate([hot, cold])
    vals = rng.integers(0, 10_000, n, dtype=np.int64)
    fvals = rng.normal(size=n)
    t = pa.table(
        {"cell": pa.array(keys), "v": pa.array(vals), "f": pa.array(fvals)}
    )
    ds = rd.from_arrow(t).repartition(16)
    kw = dict(key="cell", sum_cols=("v",), mean_cols=("f",), min_cols=("v",), max_cols=("v",))

    calls: list[int] = []
    real_kpm = sh.keyed_partition_map

    def spy(ds, keys, partition_fn, num_partitions=64, **kwargs):
        calls.append(num_partitions)
        return real_kpm(ds, keys, partition_fn, num_partitions, **kwargs)

    monkeypatch.setattr(sh, "keyed_partition_map", spy)
    results = {}
    for route, merge_rows in (("one_task", sh.MERGE_PARTITION_ROWS), ("partitioned", 1)):
        monkeypatch.setattr(sh, "MERGE_PARTITION_ROWS", merge_rows)
        for s in (1, 8, "auto"):
            calls.clear()
            results[route, s] = (
                grouped_count_sums(ds, **kw, salts=s)
                .to_pandas()
                .sort_values("cell")
                .reset_index(drop=True)
            )
            if route == "one_task":
                assert calls == [1], (route, s, calls)
            elif s == 1:
                assert len(calls) == 1 and calls[0] > 1, (route, s, calls)
            else:  # salted pre-merge, then the final merge
                assert len(calls) == 2 and min(calls) > 1, (route, s, calls)
    plain = results["one_task", 1]
    for (route, s), got in results.items():
        for c in ("cell", "cnt", "sum_v", "min_v", "max_v"):
            assert (got[c].to_numpy() == plain[c].to_numpy()).all(), (route, s, c)
        np.testing.assert_allclose(
            got["mean_f"].to_numpy(), plain["mean_f"].to_numpy(), rtol=1e-12
        )
    # pandas oracle for the exact-int columns
    df = t.to_pandas()
    exp = df.groupby("cell")["v"].agg(["count", "sum", "min", "max"]).reset_index()
    assert (plain["cnt"].to_numpy() == exp["count"].to_numpy()).all()
    assert (plain["sum_v"].to_numpy() == exp["sum"].to_numpy()).all()
    # the probe itself picks S > 1 on this distribution
    hist = sampled_key_histogram(ds, "cell", fraction=0.01)
    assert choose_salts(hist, int(hist.cnt.sum())) > 1


@pytest.mark.usefixtures("ray_session")
def test_keyed_partition_map_one_partition_equals_sixteen():
    """num_partitions=1 (one task, no sort) returns the same rows as
    the 16-partition sort route, with the out_schema types. The input
    mixes Arrow blocks with a pandas block, which to_arrow_refs hands
    through unconverted."""
    from engine.shuffle import keyed_partition_map

    rng = np.random.default_rng(11)
    n = 20_000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 500, n, dtype=np.int64)),
            "s": pa.array([f"u{i % 37}" for i in range(n)]),
            "v": pa.array(rng.normal(size=n)),
        }
    )
    half = n // 2
    arrow_blocks = [t.slice(i, 2_500) for i in range(0, half, 2_500)]
    ds = rd.from_arrow(arrow_blocks).union(rd.from_pandas(t.slice(half).to_pandas()))
    schema = pa.schema([("k", pa.int64()), ("s", pa.string()), ("n", pa.int64()), ("v", pa.float64())])

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["k", "s"], sort=False)
        return g["v"].agg(n="size", v="sum").reset_index()

    def collect(p: int) -> pd.DataFrame:
        out = keyed_partition_map(ds, ["k", "s"], per_key, p, out_schema=schema)
        assert out.schema().base_schema == schema
        return out.to_pandas().sort_values(["k", "s"]).reset_index(drop=True)

    one, sixteen = collect(1), collect(16)
    assert one["n"].sum() == n
    pd.testing.assert_frame_equal(one, sixteen, check_exact=False, rtol=1e-12)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("blocks", ["none", "only_empty"])
def test_keyed_partition_map_one_partition_empty_input(blocks):
    """No rows in, zero rows out without calling partition_fn, typed
    by out_schema — whether the input has no blocks or only empty ones."""
    from engine.shuffle import keyed_partition_map

    empty = pa.schema([("k", pa.int64()), ("v", pa.float64())]).empty_table()
    if blocks == "none":
        ds = rd.from_arrow(empty).limit(0)  # executes to zero blocks
    else:
        ds = rd.from_arrow([empty, empty])
    out_schema = pa.schema([("k", pa.int64()), ("n", pa.int32())])

    def boom(df):
        raise AssertionError("partition_fn called on an empty input")

    out = keyed_partition_map(ds, ["k"], boom, 1, out_schema=out_schema)
    assert out.count() == 0
    assert out.schema().base_schema == out_schema
    assert keyed_partition_map(ds, ["k"], boom, 1).count() == 0


def test_checkpoint_stale_manifest_rerun(tmp_path, ray_session):
    """A manifest whose src_files no longer match the current shard
    group is stale — the partition must re-run, not be skipped."""
    import json
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from engine.checkpoint import run_resumable

    shards = []
    for i in range(4):
        f = tmp_path / f"s{i}.parquet"
        pq.write_table(pa.table({"v": [i]}), f)
        shards.append(str(f))

    def pipe(group):
        return rd.read_parquet(group)

    out = str(tmp_path / "out")
    m1 = run_resumable(shards[:2], out, pipe, shard_group_size=2)
    assert m1["executed"] == 1
    # Same layout: skipped.
    m2 = run_resumable(shards[:2], out, pipe, shard_group_size=2)
    assert m2["skipped_complete"] == 1 and m2["executed"] == 0
    # Shards sorting BEFORE the originals shift the groups: part 0's
    # manifest no longer matches its group -> stale -> rerun.
    import pyarrow as pa2
    import pyarrow.parquet as pq2

    early = str(tmp_path / "a0.parquet")
    pq2.write_table(pa2.table({"v": [99]}), early)
    m3 = run_resumable([early] + shards[:2], out, pipe, shard_group_size=2)
    assert m3["rerun_stale_manifest"] == 1 and m3["executed"] == 2


def test_knn_k_exceeds_control_points():
    import numpy as np

    from geokit.knn import PaddedGridKnn, brute_knn, grid_knn

    cx = np.array([0.0, 10.0, 20.0])
    cy = np.array([0.0, 0.0, 0.0])
    px = np.array([1.0, 25.0, -100.0])
    py = np.array([0.0, 1.0, 0.0])
    bi, bd = brute_knn(px, py, cx, cy, k=5)
    assert bi.shape == (3, 3)  # clamped to m
    idx = PaddedGridKnn(cx, cy, k=5, ncells=16)
    gi, gd = idx.query(px, py)
    assert np.array_equal(gi, bi)
    ri, rdist = grid_knn(px, py, cx, cy, k=5, cell=5.0)
    assert np.array_equal(ri, bi)


def test_bucket_grid_knn_exact_vs_brute_skewed():
    """BucketGridKnn (CSR bucket grid, the large-m J4 path) returns
    exactly brute_knn's answers on a density-skewed control table,
    for in-grid, boundary-overhang and far-outside queries alike —
    and the m-chunked brute_knn merge equals the one-shot path."""
    import numpy as np

    from geokit.knn import BucketGridKnn, PaddedGridKnn, brute_knn, build_knn_index

    rng = np.random.default_rng(77)
    m = 30_000
    cx = rng.uniform(0.0, 10_000.0, m)
    cy = rng.uniform(0.0, 6_000.0, m)
    dense = rng.random(m) < 0.6  # one city disk holds 60% of points
    kk = int(dense.sum())
    ang = rng.uniform(0, 2 * np.pi, kk)
    rad = 300.0 * np.sqrt(rng.random(kk))
    cx[dense] = 7_000.0 + rad * np.cos(ang)
    cy[dense] = 2_000.0 + rad * np.sin(ang)

    n = 2_000
    px = rng.uniform(-1_500.0, 11_500.0, n)  # ~25% outside the bbox
    py = rng.uniform(-1_000.0, 7_000.0, n)

    bi, bd = brute_knn(px, py, cx, cy, k=4)  # m-chunked merge path
    bi1, _ = brute_knn(px[:64], py[:64], cx, cy, k=4, chunk=64)
    assert np.array_equal(bi[:64], bi1)

    idx = BucketGridKnn(cx, cy, k=4)
    gi, gd = idx.query(px, py)
    assert np.array_equal(gi, bi)
    assert np.allclose(gd, bd)
    gi2, _ = idx.query(px, py)  # cached second pass identical
    assert np.array_equal(gi2, gi)

    # PaddedGridKnn's bucketed build path (m > threshold) agrees too.
    pidx = PaddedGridKnn(cx, cy, k=4, bucketed_build_threshold=1_000, ncells=4_096)
    pi, _ = pidx.query(px, py)
    assert np.array_equal(pi, bi)

    # Factory dispatch by small-side size.
    assert isinstance(build_knn_index(cx, cy, 4, padded_max=m - 1), BucketGridKnn)
    assert isinstance(build_knn_index(cx, cy, 4, padded_max=m), PaddedGridKnn)


def test_raster_sampler_border_band():
    """Points inside the raster extent but outside the pixel-center
    hull sample the nearest edge pixel, not 0 (review finding)."""
    import numpy as np

    from engine.raster import RasterSampler, RasterSpec

    spec = RasterSpec(x0=0.0, y0=0.0, dx=10.0, dy=10.0, nrows=4, ncols=4)
    samp = RasterSampler(spec, value_fn=lambda r, c: 100.0 + r * 4 + c)
    near, bilin, inb = samp.sample(np.array([1.0, -0.1]), np.array([1.0, 5.0]))
    assert inb[0] and not inb[1]
    assert near[0] == 100.0  # pixel (0,0), not zero
    assert bilin[0] == 100.0  # edge-clamped
    assert near[1] == 0.0  # genuinely outside the extent


def test_keyed_partition_map_owns_ndarray_view_columns(ray_session):
    """Ray 2.49 corruption guard: a partition_fn emitting list columns
    as contiguous ndarray VIEWS of one shared base (here a consolidated
    2-D block, pandas' natural layout for same-dtype columns) trips
    ArrowVariableShapedTensorArray.from_numpy's zero-copy path, which
    ships ``raveled[-1].base`` read from offset 0 — both columns then
    serialize the base's first rows (ys becomes a copy of xs).
    keyed_partition_map must emit owning arrays so values survive."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from engine.shuffle import keyed_partition_map

    n = 8
    t = pa.table(
        {
            "k": np.zeros(n, np.int64),
            "x": np.arange(n, dtype=np.float64),
            "y": np.arange(n, dtype=np.float64) * 100.0 + 1.0,
        }
    )

    def regroup(df: pd.DataFrame) -> pd.DataFrame:
        block = np.vstack([df["x"].to_numpy(), df["y"].to_numpy()])
        x, y = block[0], block[1]  # views sharing one 2-D base
        return pd.DataFrame(
            {
                "k": [0, 0],
                "xs": [x[0:3], x[3:n]],
                "ys": [y[0:3], y[3:n]],
            }
        )

    for num_partitions in (1, 4):  # the one-task route and the sort route
        out = keyed_partition_map(rd.from_arrow(t), ["k"], regroup, num_partitions)
        rows = out.take_all()
        assert len(rows) == 2
        for r in rows:
            xs = np.asarray(r["xs"])
            ys = np.asarray(r["ys"])
            assert np.array_equal(ys, xs * 100.0 + 1.0)  # ys survived intact

    # The underlying Ray defect, probed directly (documents WHY the
    # guard exists; if a Ray upgrade fixes from_numpy, this stops
    # observing corruption and the guard becomes belt-and-braces):
    from ray.air.util.tensor_extensions.arrow import ArrowVariableShapedTensorArray

    block = np.vstack([np.arange(8.0), np.arange(8.0) * 100.0 + 1.0])
    y = block[1]
    raw = ArrowVariableShapedTensorArray.from_numpy([y[0:3], y[3:8]])
    raw_vals = np.concatenate(list(raw.to_numpy(zero_copy_only=False)))
    guarded = regroup(
        pd.DataFrame({"k": np.zeros(8, np.int64), "x": block[0], "y": block[1]})
    )
    from engine.shuffle import _own_object_ndarrays_for_tests as own

    owned = own(guarded)
    for col in ("xs", "ys"):
        for v in owned[col]:
            assert v.base is None  # owning buffer -> safe concatenate path
    ok = ArrowVariableShapedTensorArray.from_numpy(list(owned["ys"]))
    ok_vals = np.concatenate(list(ok.to_numpy(zero_copy_only=False)))
    assert np.array_equal(ok_vals, y)  # guarded conversion is correct
    if not np.array_equal(raw_vals, y):
        pass  # Ray bug still present; the guard above is load-bearing


def test_deterministic_key_hash_null_string_keys():
    """Null string keys hash deterministically (a fixed sentinel)
    instead of crashing on NaN dictionary indices."""
    import pyarrow as pa

    from engine.shuffle import deterministic_key_hash

    t = pa.table({"k": pa.array(["a", None, "b", None])})
    h = deterministic_key_hash(t, ["k"])
    assert len(h) == 4
    assert h[1] == h[3]  # nulls agree with each other
    assert h[1] != h[0] and h[1] != h[2]


def test_write_dbf_refuses_overflowing_numerics(tmp_path):
    """int64 extremes fit the 20-char N field; a value too wide for
    its field raises instead of silently truncating digits."""
    import pyarrow as pa

    from engine.shapefile import read_dbf, write_dbf

    t = pa.table({"v": pa.array([2**63 - 1, -(2**63), 0], pa.int64())})
    write_dbf(t, tmp_path / "wide.dbf")
    assert read_dbf(tmp_path / "wide.dbf")["v"].to_pylist() == [
        2**63 - 1,
        -(2**63),
        0,
    ]
    big = pa.table({"v": pa.array([1e300])})  # 1e300 as %.6f -> ~307 chars
    import pytest as _pytest

    with _pytest.raises(ValueError, match="cannot hold"):
        write_dbf(big, tmp_path / "overflow.dbf")


def test_cli_convert_reverse_flag(tmp_path):
    """-r swaps the first/second field interpretation (reference
    gk-slo -r, SURVEY.md §2.3 M2): la fi input with -r must equal
    fi la input without it."""
    inp_fwd = tmp_path / "fwd.txt"
    inp_fwd.write_text("pt1 46.05 14.50 300.0\n")
    inp_rev = tmp_path / "rev.txt"
    inp_rev.write_text("pt1 14.50 46.05 300.0\n")
    env = dict(os.environ)
    out_fwd = subprocess.run(
        [sys.executable, "-m", "engine.cli", "convert", "-t", "2", str(inp_fwd)],
        capture_output=True, text=True, cwd="/root/repo", env=env, check=True,
    ).stdout
    out_rev = subprocess.run(
        [sys.executable, "-m", "engine.cli", "convert", "-t", "2", "-r", str(inp_rev)],
        capture_output=True, text=True, cwd="/root/repo", env=env, check=True,
    ).stdout
    assert out_fwd == out_rev and out_fwd.strip()


def test_cli_curate_end_to_end(tmp_path):
    """`engine.cli curate` runs the full curation chain (incl. the
    opt-in PII scrub + newline line-dedup stages) in a fresh process
    and writes train/val parquet; the printed report is exact."""
    import glob as _glob
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    common = "the shared common line is here today"
    docs = [
        (0, "please reach the team at bob@x.io for the full details"),
        (1, "please reach the team at eve@y.org for the full details"),
        (2, f"the cat and the dog sat in the sun\n{common}"),
        (3, common),
    ]
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([s for _, s in docs]),
            }
        ),
        str(src / "part-0.parquet"),
    )
    out = tmp_path / "curated"
    r = subprocess.run(
        [
            sys.executable, "-m", "engine.cli", "curate",
            "--input", str(src), "--output", str(out),
            "--scrub-pii", "--line-dedup", "newline",
            "--val-permille", "0", "--num-cpus", "4",
        ],
        capture_output=True, text=True, cwd="/root/repo", check=True,
    )
    report = _json.loads(r.stdout.strip().splitlines()[-1])
    assert report["input"] == 4
    assert report["pii_docs_scrubbed"] == 2
    assert report["exact_dups_dropped"] == 1   # doc 1 after scrub
    assert report["lines_dropped"] == 1        # doc 3's only line
    assert report["emptied_docs_dropped"] == 1  # doc 3
    assert report["output"] == 2               # docs 0 and 2 survive
    files = _glob.glob(str(out / "train" / "*"))
    assert files
    back = pq.read_table(files)
    assert back.num_rows == 2


_CORPUS_DIFF_ONE_CPU = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from engine.queries import q_corpus_diff
df = q_corpus_diff(sys.argv[1]).to_pandas()
print(dict(zip(df["status"], df["n"].astype(int))))
ray.shutdown()
"""


def test_corpus_diff_finishes_at_one_cpu(tmp_path):
    """q_corpus_diff at num_cpus=1, in its own process and Ray session:
    the diff unions two sorted index lineages, which wedged Ray's
    streaming executor at one CPU until both indexes were materialized
    first. A hang fails the test at the timeout (the process group,
    Ray's own processes included, is killed); the counts are checked
    against pandas."""
    import ast
    import signal

    rng = np.random.default_rng(3)
    n = 2_000
    words = np.array(list("abcdefghijklmnop"))
    text = [" ".join(words[rng.integers(0, 16, 12)]) for _ in range(n)]
    text = [t if i % 7 else text[0] for i, t in enumerate(text)]  # exact dups
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": text})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), tmp_path / "documents.parquet")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CORPUS_DIFF_ONE_CPU, str(tmp_path)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("q_corpus_diff did not finish within 150 s at num_cpus=1")
    assert proc.returncode == 0, err[-2000:]
    got = ast.literal_eval(out.strip().splitlines()[-1])

    # The synthesized next crawl, as q_corpus_diff / SQL_CORPUS_DIFF define it.
    ids = docs["doc_id"]
    b = docs[ids % 5 != 0].copy()
    b.loc[b["doc_id"] % 5 == 1, "text"] += " v2"
    extra = docs[ids % 5 == 2]["text"] + " extra"
    a_texts = set(docs["text"])
    b_texts = set(b["text"]) | set(extra)
    assert got == {
        "common": len(a_texts & b_texts),
        "removed": len(a_texts - b_texts),
        "added": len(b_texts - a_texts),
    }
