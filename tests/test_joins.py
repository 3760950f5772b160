"""PIP / kNN join conformance vs brute-force oracles (SURVEY.md §5.2.4)."""

import numpy as np
import pyarrow as pa
import pytest

import assets
from geokit.knn import brute_knn, grid_knn
from geokit.polygons import pip_lookup, point_in_ring


def _random_points(n=2000, seed=5):
    rng = np.random.default_rng(seed)
    polys = assets.load_municipalities()
    x0, y0 = polys.bbox[:, 0].min(), polys.bbox[:, 1].min()
    x1, y1 = polys.bbox[:, 2].max(), polys.bbox[:, 3].max()
    return rng.uniform(x0 - 1000, x1 + 1000, n), rng.uniform(y0 - 1000, y1 + 1000, n)


def test_pip_matches_bruteforce_oracle():
    polys = assets.load_municipalities()
    px, py = _random_points()
    got = pip_lookup(polys, px, py)

    # O(n*m) oracle: test every point against every ring.
    oracle = np.full(len(px), -1, dtype=np.int64)
    for p in range(len(polys.muni_id)):
        s, e = polys.ring_start[p], polys.ring_start[p + 1]
        inside = point_in_ring(px, py, polys.xs[s:e], polys.ys[s:e])
        first = inside & (oracle == -1)
        oracle[first] = p
    assert np.array_equal(got, oracle)


def test_pip_tiling_exhaustive():
    """Interior points of the jittered-quad tiling match exactly one
    polygon (FIXTURES.md C: exhaustive, non-overlapping)."""
    polys = assets.load_municipalities()
    rng = np.random.default_rng(6)
    x0, y0 = polys.bbox[:, 0].min() + 1000, polys.bbox[:, 1].min() + 1000
    x1, y1 = polys.bbox[:, 2].max() - 1000, polys.bbox[:, 3].max() - 1000
    px = rng.uniform(x0, x1, 3000)
    py = rng.uniform(y0, y1, 3000)
    got = pip_lookup(polys, px, py)
    assert (got >= 0).all()


def test_grid_pip_index_matches_linear_scan():
    """GridPipIndex.lookup == pip_lookup point-for-point, including the
    first-containing-polygon (lowest index) tie rule and outside-all
    points (the nationwide-scale PIP path, round-2 verdict)."""
    from geokit.polygons import GridPipIndex

    polys = assets.load_municipalities()
    px, py = _random_points(4000, seed=11)
    idx = GridPipIndex(polys, nx=32, ny=32)
    assert np.array_equal(idx.lookup(px, py), pip_lookup(polys, px, py))
    # Degenerate grids still agree (every polygon in one cell).
    one = GridPipIndex(polys, nx=1, ny=1)
    assert np.array_equal(one.lookup(px, py), pip_lookup(polys, px, py))


def test_grid_pip_overlapping_polygons_first_wins():
    """Overlapping synthetic squares: the LOWEST polygon index must win
    in both paths, and zone_of auto-routes large sets to the grid."""
    from geokit.polygons import GRID_PIP_THRESHOLD, GridPipIndex, PolygonSet, zone_of

    rng = np.random.default_rng(3)
    n = GRID_PIP_THRESHOLD + 8  # force the grid path in zone_of
    cx = rng.uniform(0, 100, n)
    cy = rng.uniform(0, 100, n)
    half = rng.uniform(3, 12, n)
    xs, ys, starts = [], [], [0]
    bbox = np.empty((n, 4))
    for i in range(n):
        xs += [cx[i] - half[i], cx[i] + half[i], cx[i] + half[i], cx[i] - half[i]]
        ys += [cy[i] - half[i], cy[i] - half[i], cy[i] + half[i], cy[i] + half[i]]
        starts.append(len(xs))
        bbox[i] = [cx[i] - half[i], cy[i] - half[i], cx[i] + half[i], cy[i] + half[i]]
    polys = PolygonSet(
        muni_id=np.arange(100, 100 + n, dtype=np.int32),
        name=np.array([f"p{i}" for i in range(n)], dtype=object),
        ring_start=np.array(starts, dtype=np.int64),
        xs=np.array(xs),
        ys=np.array(ys),
        bbox=bbox,
    )
    px = rng.uniform(-10, 110, 5000)
    py = rng.uniform(-10, 110, 5000)
    lin = pip_lookup(polys, px, py)
    grid = GridPipIndex(polys).lookup(px, py)
    assert np.array_equal(lin, grid)
    zones = zone_of(polys, px, py)
    want = np.where(lin >= 0, polys.muni_id[np.where(lin >= 0, lin, 0)], -1).astype(np.int32)
    assert np.array_equal(zones, want)


def test_knn_matches_bruteforce_sort_oracle():
    cp = assets.load_control_points()
    px, py = _random_points(500, seed=9)
    idx, dist = brute_knn(px, py, cp["x"], cp["y"], 3)
    for i in range(0, 500, 50):
        d2 = (cp["x"] - px[i]) ** 2 + (cp["y"] - py[i]) ** 2
        order = np.lexsort((np.arange(len(d2)), d2))[:3]
        assert np.array_equal(idx[i], order)
        assert np.allclose(dist[i], np.sqrt(d2[order]))


def test_grid_knn_matches_brute():
    cp = assets.load_control_points()
    px, py = _random_points(200, seed=10)
    bi, bd = brute_knn(px, py, cp["x"], cp["y"], 3)
    gi, gd = grid_knn(px, py, cp["x"], cp["y"], 3, cell=15000.0)
    assert np.array_equal(bi, gi)
    assert np.allclose(bd, gd)


def test_semi_anti_filter_empty_key_set(ray_session):
    """Empty broadcast key set: semi keeps nothing, anti keeps all
    (previously IndexError via np.clip into a size-0 array)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from engine.joins import semi_filter

    ds = rd.from_arrow(pa.table({"k": pa.array(np.arange(10, dtype=np.int64))}))
    assert semi_filter(ds, np.array([], dtype=np.int64), "k").count() == 0
    assert semi_filter(ds, np.array([], dtype=np.int64), "k", anti=True).count() == 10


def test_broadcast_lookup_empty_small_side(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from engine.joins import broadcast_lookup

    ds = rd.from_arrow(pa.table({"k": pa.array(np.arange(5, dtype=np.int64))}))
    small = pa.table({"k2": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    left = broadcast_lookup(ds, small, "k", "k2", ["v"], how="left").to_pandas()
    assert len(left) == 5 and left["v"].isna().all()
    inner = broadcast_lookup(ds, small, "k", "k2", ["v"], how="inner")
    assert inner.count() == 0


def test_bucket_hash_spreads_stride_aligned_keys():
    """Stride-2^k keys must not collapse into one hash-join bucket
    (the raw Knuth multiply is the identity mod powers of two)."""
    import numpy as np
    import pyarrow as pa

    from engine.shuffle import deterministic_key_hash

    keys = pa.table({"k": pa.array(np.arange(0, 16 * 1000, 16, dtype=np.int64))})
    h = deterministic_key_hash(keys, ["k"])
    buckets = np.unique(np.abs(h) % 16)
    assert len(buckets) == 16  # all buckets populated


@pytest.mark.usefixtures("ray_session")
def test_bloom_no_false_negatives_and_bounded_fp():
    """Every build key passes the filter (hard guarantee); measured
    false-positive rate on disjoint probes stays near the ~1% design
    point at 16 bits/key."""
    import ray.data as rd

    from engine.joins import bloom_bits_size, bloom_build, bloom_contains

    build = np.arange(0, 20_000, 2, dtype=np.int64)  # 10k even keys
    m_bits = bloom_bits_size(len(build))
    ds = rd.from_arrow(pa.table({"k": pa.array(build)})).repartition(8)
    words = bloom_build(ds, "k", m_bits)
    assert bloom_contains(words, pa.array(build), m_bits).all()
    probes = np.arange(1, 200_001, 2, dtype=np.int64)  # odd: all absent
    fp = bloom_contains(words, pa.array(probes), m_bits).mean()
    assert fp < 0.05


@pytest.mark.usefixtures("ray_session")
def test_bloom_semi_filter_string_keys_and_empty_build():
    import ray.data as rd

    from engine.joins import bloom_build, bloom_semi_filter

    build = rd.from_arrow(pa.table({"k": pa.array(["a", "b"])}))
    words = bloom_build(build, "k", 1 << 20)
    probe = rd.from_arrow(
        pa.table({"k": pa.array(["a", "b", "c", "d"]), "v": pa.array([1, 2, 3, 4])})
    )
    got = bloom_semi_filter(probe, words, "k", 1 << 20).to_pandas()
    assert set(got.k) >= {"a", "b"}  # no false negatives
    # Empty build side: all-zero words keep nothing.
    empty = rd.from_arrow(pa.table({"k": pa.array([], type=pa.string())}))
    w0 = bloom_build(empty, "k", 1 << 20)
    assert bloom_semi_filter(probe, w0, "k", 1 << 20).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_hash_join_outer_modes_match_pandas():
    """left / right / full outer hash_join vs a pandas merge oracle:
    unmatched keys on both sides produce null-padded rows, values above
    2^53 survive (the acero-vs-pandas int64 contract), and inner stays
    consistent with the outer modes' matched subsets."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from engine.joins import hash_join

    big = (1 << 60) + 7  # above 2^53: float round-trips would corrupt
    left = pa.table(
        {
            "k": pa.array([1, 2, 3, 5, 7], pa.int64()),
            "lv": pa.array([10, 20, 30, 50, big], pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([2, 3, 4, 7, 9], pa.int64()),
            "rv": pa.array([200, 300, 400, big + 1, 900], pa.int64()),
        }
    )
    lp, rp = left.to_pandas(), right.to_pandas()
    for how, p_how in (("left", "left"), ("right", "right"), ("outer", "outer"), ("inner", "inner")):
        got = (
            hash_join(
                rd.from_arrow(left).repartition(2),
                rd.from_arrow(right).repartition(3),
                key="k",
                num_buckets=4,
                how=how,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        exp = lp.merge(rp, on="k", how=p_how).sort_values("k").reset_index(drop=True)
        assert len(got) == len(exp), how
        for c in ("k", "lv", "rv"):
            # row structure + null pattern via pandas (values pass
            # through float64 here, so this is NOT the exactness check)
            ge = pd.array(got[c], dtype="Int64")
            ee = pd.array(exp[c].astype("Int64") if exp[c].dtype.kind == "i" else exp[c], dtype="Int64")
            assert (ge.isna() == ee.isna()).all(), (how, c)
            assert (ge.dropna() == ee.dropna()).all(), (how, c)
        # >2^53 exactness PER MODE must be read at the Arrow level —
        # pandas' int64-with-nulls -> float64 conversion rounds both
        # sides identically and would mask a sub-ulp(2^60) corruption
        tbl = pa.concat_tables(
            hash_join(
                rd.from_arrow(left), rd.from_arrow(right), key="k",
                num_buckets=4, how=how,
            ).iter_batches(batch_format="pyarrow")
        )
        row7 = tbl.filter(pa.compute.equal(tbl["k"], 7))
        assert row7["lv"][0].as_py() == big, how
        assert row7["rv"][0].as_py() == big + 1, how
    # big ints survive exactly through the outer path — read via Arrow
    # (pandas converts int64-with-nulls to float64, corrupting >2^53
    # in the TEST, not the engine)
    full = pa.concat_tables(
        hash_join(
            rd.from_arrow(left), rd.from_arrow(right), key="k", num_buckets=4, how="outer"
        ).iter_batches(batch_format="pyarrow")
    )
    row7 = full.filter(pa.compute.equal(full["k"], 7))
    assert row7["lv"][0].as_py() == big
    assert row7["rv"][0].as_py() == big + 1


@pytest.mark.usefixtures("ray_session")
def test_hash_join_blocks_carry_declared_schema():
    """Every output block of hash_join, empty buckets included, has the
    declared columns (left, then right non-key) and their types."""
    import ray
    import ray.data as rd

    from engine.joins import hash_join

    left = pa.table({"k": pa.array([1, 2], pa.int64()), "lv": pa.array(["a", "b"])})
    right = pa.table({"k": pa.array([2, 3], pa.int64()), "rv": pa.array([0.5, 1.5])})
    want = pa.schema([("k", pa.int64()), ("lv", pa.string()), ("rv", pa.float64())])
    for how in ("inner", "left"):
        out = hash_join(
            rd.from_arrow(left).repartition(2), rd.from_arrow(right).repartition(2), "k", how=how
        )
        blocks = [pa.table(b) for b in ray.get(out.materialize().to_arrow_refs())]
        assert blocks and all(b.schema.remove_metadata() == want for b in blocks), how
        assert sum(b.num_rows for b in blocks) == (1 if how == "inner" else 2)


def test_revenue_by_nation_matches_duckdb_oracle(ray_session):
    """X34 Q5-shaped six-table join pipeline vs the straight SQL."""
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["revenue_by_nation"]
    sf = "/root/testdata/sf0.01"  # sf0.001 yields a single surviving nation
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "orders", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 1
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


def test_salted_hash_join_hot_key_exact(ray_session):
    """Skew-salted join == plain hash_join == pandas merge on a
    corpus where ONE key is 50% of the probe side, for inner and
    left; unsupported outer modes raise."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from engine.joins import hash_join, salted_hash_join

    rng = np.random.default_rng(11)
    n = 20_000
    k = np.where(rng.random(n) < 0.5, 42, rng.integers(0, 500, n)).astype(np.int64)
    left = pa.table({"k": k, "lv": np.arange(n, dtype=np.int64)})
    # build side: includes several rows for the hot key, and keys with
    # no probe match (for the left-outer null path)
    rk = np.concatenate([[42, 42, 42], np.arange(600, dtype=np.int64)])
    right = pa.table({"k": rk, "rv": np.arange(len(rk), dtype=np.int64) * 10})
    lds = rd.from_arrow(left).repartition(6)
    rds = rd.from_arrow(right).repartition(3)

    lpd, rpd = left.to_pandas(), right.to_pandas()
    for how in ("inner", "left"):
        got = (
            salted_hash_join(lds, rds, key="k", hot_keys=[42], salts=8, how=how)
            .to_pandas()
            .sort_values(["k", "lv", "rv"])
            .reset_index(drop=True)
        )
        plain = (
            hash_join(lds, rds, key="k", how=how)
            .to_pandas()
            .sort_values(["k", "lv", "rv"])
            .reset_index(drop=True)
        )
        oracle = (
            lpd.merge(rpd, on="k", how=how)
            .sort_values(["k", "lv", "rv"])
            .reset_index(drop=True)
        )
        assert len(got) == len(plain) == len(oracle)
        for c in ("k", "lv"):
            assert (got[c].to_numpy() == oracle[c].to_numpy()).all()
        # rv has nulls under left: compare as float
        assert (
            got["rv"].to_numpy(dtype=float, na_value=-1)
            == oracle["rv"].to_numpy(dtype=float, na_value=-1)
        ).all()

    with pytest.raises(ValueError):
        salted_hash_join(lds, rds, key="k", hot_keys=[42], how="outer")


def test_sampled_hot_keys_finds_the_hot_key(ray_session):
    import ray.data as rd

    from engine.joins import salted_hash_join, sampled_hot_keys

    rng = np.random.default_rng(3)
    n = 200_000
    k = np.where(rng.random(n) < 0.4, 99, rng.integers(0, 5_000, n)).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"k": k, "lv": np.arange(n, dtype=np.int64)})
    ).repartition(8)
    hot = sampled_hot_keys(ds, "k", share_threshold=0.05, fraction=0.01)
    assert hot == [99]
    # end-to-end: auto-detected hot keys feed the salted join exactly
    right = rd.from_arrow(
        pa.table(
            {"k": np.arange(5_001, dtype=np.int64), "rv": np.arange(5_001, dtype=np.int64)}
        )
    )
    got = (
        salted_hash_join(ds, right, key="k", hot_keys=hot, salts=8)
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    assert len(got) == n
    assert (got.rv.to_numpy() == got.k.to_numpy()).all()


def test_broadcast_lookup_multichunk_blocks_align(ray_session):
    """Regression: pyarrow 16.1's variadic kernels (pc.coalesce) zip
    chunks pairwise when two ChunkedArray args have different chunk
    layouts, silently misaligning rows. broadcast_lookup used to
    append a single-chunk column to multi-chunk input blocks (e.g.
    blocks built by pa.concat_tables), arming exactly that trap for
    every downstream coalesce — it now single-chunks the block first.
    This test feeds 4-chunk blocks through a lookup + coalesce verdict
    and checks every row."""
    import pyarrow.compute as pc
    import ray.data as rd

    from engine.joins import broadcast_lookup

    def gen(b: pa.Table) -> pa.Table:
        ids = b["k"].combine_chunks() if isinstance(b["k"], pa.ChunkedArray) else b["k"]
        parts = [
            pa.table({"k": pc.add(ids, off)}) for off in (0, 1000, 2000, 3000)
        ]
        return pa.concat_tables(parts)  # deliberately multi-chunk

    base = rd.from_arrow(pa.table({"k": pa.array(np.arange(50, dtype=np.int64))}))
    ds = base.repartition(2).map_batches(gen, batch_format="pyarrow")
    small = pa.table(
        {
            "k2": pa.array(np.array([0, 1, 2, 1000, 3049], dtype=np.int64)),
            "v": pa.array(np.array([100, 101, 102, 110, 139], dtype=np.int64)),
        }
    )
    joined = broadcast_lookup(ds, small, "k", "k2", ["v"], how="left")

    def verdict(b: pa.Table) -> pa.Table:
        out = pc.coalesce(b["v"], pc.cast(b["k"], pa.int64()))
        return pa.table({"k": b["k"], "r": out})

    got = (
        joined.map_batches(verdict, batch_format="pyarrow")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    lut = {0: 100, 1: 101, 2: 102, 1000: 110, 3049: 139}
    exp = got["k"].map(lambda k: lut.get(k, k)).to_numpy()
    assert (got["r"].to_numpy() == exp).all()
