"""engine/analytics.py — rollup, hopping window, grouped quantiles,
semi/anti flag join: DuckDB value oracles (the driver comparison in
miniature) plus path-equivalence and brute-force property checks.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _assert_exact(ray_df, sql_df):
    assert len(ray_df) == len(sql_df)
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert np.array_equal(av, bv), c


@pytest.mark.parametrize(
    "name",
    [
        "rollup_lineitem",
        "hopping_window",
        "grouped_quantiles",
        "semi_anti_orders",
        "pivot_orders",
        "moment_stats_events",
    ],
)
def test_analytics_sql_exact(ray_session, con, name):
    from engine.queries import REGISTRY

    fn, sql = REGISTRY[name]
    _assert_exact(fn(SF).to_pandas(), con.sql(sql).df())


def test_flag_join_empty_right_side(ray_session):
    """A cutoff past max(l_shipdate) leaves the key set empty: every
    order must flag False on the broadcast path (len(ks)==0 guard)."""
    import engine.analytics as an

    old = an.SEMI_ANTI_CUTOFF
    an.SEMI_ANTI_CUTOFF = "2199-01-01"
    try:
        df = an.q_semi_anti(SF).to_pandas()
    finally:
        an.SEMI_ANTI_CUTOFF = old
    assert len(df) > 0 and not df["has_late"].any()


def test_rollup_levels_are_consistent(ray_session):
    """Internal consistency: the lvl-2 ALL/ALL row equals the sum of
    each finer level (a seam the SQL oracle can't misreport on both
    sides at once)."""
    from engine.analytics import q_rollup_lineitem

    df = q_rollup_lineitem(SF).to_pandas()
    total = df[df.lvl == 2]
    assert len(total) == 1
    for lvl in (0, 1):
        part = df[df.lvl == lvl]
        assert part.cnt.sum() == total.cnt.iloc[0]
        assert part.sum_qty_cents.sum() == total.sum_qty_cents.iloc[0]
    # lvl-1 rows roll up the linestatus axis only
    assert (df[df.lvl == 1].l_linestatus == "ALL").all()
    assert (df[df.lvl == 1].l_returnflag != "ALL").all()


def test_hopping_window_replication_invariants(ray_session):
    """Every event lands in exactly WIN_HOPS windows: total window
    event-count is WIN_HOPS x the row count, and each (event ts) is
    covered by windows whose [w_start, w_start + WIN_HOPS*HOP_S) span
    contains it."""
    import pyarrow.parquet as pq

    from engine.analytics import HOP_S, WIN_HOPS, q_hopping_window

    df = q_hopping_window(SF).to_pandas()
    n_events = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert df.n_events.sum() == WIN_HOPS * n_events
    # windows align to the hop grid
    assert (df.w_start % HOP_S == 0).all()


def test_grouped_quantiles_brute_force(ray_session):
    """percentile_disc rule (sorted[ceil(q*n)-1]) recomputed per group
    on the driver from the raw parquet."""
    import pyarrow.parquet as pq

    from engine.analytics import QUANTILES, q_grouped_quantiles

    df = q_grouped_quantiles(SF).to_pandas().set_index("o_orderpriority")
    t = pq.read_table(
        f"{SF}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    ).to_pandas()
    t["cents"] = np.round(t.o_totalprice * 100).astype(np.int64)
    for k, g in t.groupby("o_orderpriority"):
        v = np.sort(g.cents.to_numpy())
        n = len(v)
        for q in QUANTILES:
            expect = v[min(n - 1, int(np.ceil(q * n)) - 1)]
            assert df.loc[k, f"p{int(q*100)}_cents"] == expect, (k, q)


@pytest.mark.usefixtures("ray_session")
def test_pivot_aggregate_matches_pandas():
    """Distributed pivot == pandas pivot_table on random cells,
    including absent (row, col) combinations emitting 0."""
    import ray.data as rd

    from engine.analytics import pivot_aggregate

    rng = np.random.default_rng(11)
    n = 5000
    rows = np.array(["r1", "r2", "r3", "r4"])[rng.integers(0, 4, n)]
    cols = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    vals = rng.integers(-50, 50, n).astype(np.int64)
    mask = ~((rows == "r4") & (cols == "c"))  # plant an absent cell
    t = pa.table({"r": rows[mask], "c": cols[mask], "v": vals[mask]})
    got = (
        pivot_aggregate(rd.from_arrow(t).repartition(8), "r", "c", "v", ["a", "b", "c"])
        .to_pandas()
        .sort_values("r")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    for v in ["a", "b", "c"]:
        sub = df[df.c == v].groupby("r")["v"].agg(["count", "sum"])
        for r in ["r1", "r2", "r3", "r4"]:
            row = got[got.r == r].iloc[0]
            cnt = int(sub["count"].get(r, 0))
            sm = int(sub["sum"].get(r, 0))
            assert row[f"cnt_{v}"] == cnt and row[f"sum_{v}"] == sm, (r, v)
    assert got[got.r == "r4"].iloc[0]["cnt_c"] == 0


@pytest.mark.usefixtures("ray_session")
def test_pivot_undeclared_column_value_raises():
    import ray.data as rd

    from engine.analytics import pivot_aggregate

    t = pa.table({"r": ["x"], "c": ["SURPRISE"], "v": pa.array([1], pa.int64())})
    with pytest.raises(Exception, match="undeclared|SURPRISE"):
        pivot_aggregate(rd.from_arrow(t), "r", "c", "v", ["a"]).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_stratified_sample_matches_scalar_oracle():
    """Domain-mixing sampler vs a per-row scalar oracle: upsampling
    (>1000 milli), keep-all (1000), fractional, zero and default-rate
    groups; copy_i contiguity; repartition determinism."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from engine.analytics import stratified_sample

    n = 400
    ids = np.arange(n, dtype=np.int64)
    groups = np.array(["up", "all", "half", "drop", "unknown"], dtype=object)[ids % 5]
    h = (ids * 2654435761) % 1000
    t = pa.table(
        {
            "id": pa.array(ids),
            "g": pa.array(groups, pa.string()),
            "h": pa.array(h),
        }
    )
    rates = {"up": 2300, "all": 1000, "half": 500, "drop": 0}
    expect = []
    for i in range(n):
        r = rates.get(groups[i], 250)  # default_milli=250
        cnt = r // 1000 + (1 if h[i] < r % 1000 else 0)
        expect += [(int(ids[i]), groups[i], c) for c in range(cnt)]

    for parts in (1, 7):
        ds = rd.from_arrow(t).repartition(parts)
        out = (
            stratified_sample(ds, "g", rates, "h", default_milli=250)
            .to_pandas()
            .sort_values(["id", "copy_i"])
        )
        got = list(zip(out.id, out.g, out.copy_i))
        assert got == expect, parts
    # every "up" row appears at least twice (2300 // 1000 = 2 epochs)
    ups = [e for e in expect if e[1] == "up"]
    per_id = {}
    for i, _, c in ups:
        per_id[i] = max(per_id.get(i, 0), c + 1)
    assert all(v >= 2 for v in per_id.values()) and any(v == 3 for v in per_id.values())


@pytest.mark.usefixtures("ray_session")
def test_pack_shards_matches_scalar_oracle():
    """Sequence packing vs a scalar running-sum oracle: sparse
    non-contiguous order ids, zero-token docs, docs straddling the
    budget cut, repartition determinism, and the id_range fast path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from engine.analytics import pack_shards

    rng = np.random.default_rng(7)
    ids = np.sort(rng.choice(100_000, size=300, replace=False)).astype(np.int64)
    toks = rng.integers(0, 40, size=300).astype(np.int64)  # zeros included
    toks[10] = 0
    budget = 64
    prev = np.concatenate([[0], np.cumsum(toks)[:-1]])
    expect = list(zip(ids, toks, prev // budget, prev % budget))

    t = pa.table({"doc_id": pa.array(ids), "n_tok": pa.array(toks)})
    for parts, id_range in ((1, None), (5, None), (5, (0, 99_999))):
        ds = rd.from_arrow(t).repartition(parts)
        out = (
            pack_shards(ds, "doc_id", "n_tok", budget, num_partitions=8,
                        id_range=id_range)
            .to_pandas()
            .sort_values("doc_id")
        )
        got = list(
            zip(out.doc_id, out.n_tok, out.shard_id, out.offset_in_shard)
        )
        assert got == expect, (parts, id_range)
    # straddle: some doc must start before a cut and spill past it
    straddles = (prev % budget + toks > budget).sum()
    assert straddles > 0


def test_stratified_sample_rejects_negative_rates():
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from engine.analytics import stratified_sample

    t = pa.table({"g": pa.array(["a"]), "h": pa.array([0], pa.int64())})
    with _pytest.raises(ValueError):
        stratified_sample(rd.from_arrow(t), "g", {"a": -1}, "h")
    with _pytest.raises(ValueError):
        stratified_sample(rd.from_arrow(t), "g", {}, "h", default_milli=-5)


@pytest.mark.usefixtures("ray_session")
def test_pack_shards_rejects_wrong_id_range():
    """A caller-supplied id_range that does not cover the data must
    fail loudly (a negative range index would otherwise wrap and
    silently mis-assign shards)."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from engine.analytics import pack_shards

    t = pa.table(
        {
            "doc_id": pa.array([5, 50, 500], pa.int64()),
            "n_tok": pa.array([10, 10, 10], pa.int64()),
        }
    )
    with _pytest.raises(Exception):
        pack_shards(
            rd.from_arrow(t), "doc_id", "n_tok", 16, id_range=(10, 100)
        ).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_stratified_sample_null_groups_take_default():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from engine.analytics import stratified_sample

    t = pa.table(
        {
            "g": pa.array(["a", None, "a", None], pa.string()),
            "h": pa.array([0, 0, 999, 999], pa.int64()),
            "id": pa.array(np.arange(4, dtype=np.int64)),
        }
    )
    out = (
        stratified_sample(rd.from_arrow(t), "g", {"a": 1000}, "h", default_milli=500)
        .to_pandas()
        .sort_values("id")
    )
    # 'a' rows always kept; null rows keep iff h < 500 (row id 1 only)
    assert list(out.id) == [0, 1, 2]


def test_distinct_users_per_type_matches_duckdb_oracle(ray_session):
    """X35 exact grouped COUNT(DISTINCT) vs the straight SQL."""
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["distinct_users_per_type"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 0
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


def test_distinct_users_partitioning_invariance(ray_session):
    """The two-level distinct shape must be exact under any block
    layout (duplicate pairs split across blocks)."""
    import duckdb
    import ray.data as rd

    from engine.queries import REGISTRY, _read

    sf = "/root/testdata/sf0.001"
    fn, sql = REGISTRY["distinct_users_per_type"]
    base = fn(sf).to_pandas().sort_values("event_type").reset_index(drop=True)
    # same computation over a radically different block layout
    import engine.queries as Q

    orig = Q._read

    def shredded(sf_dir, table, columns=None, rows_per_block=32_768):
        return orig(sf_dir, table, columns, rows_per_block=97)

    Q._read = shredded
    try:
        alt = fn(sf).to_pandas().sort_values("event_type").reset_index(drop=True)
    finally:
        Q._read = orig
    assert (base.n_users.to_numpy() == alt.n_users.to_numpy()).all()
    assert (base.event_type.to_numpy() == alt.event_type.to_numpy()).all()


# ------------- deterministic global shuffle + sharding (X42, round 4)


@pytest.mark.usefixtures("ray_session")
def test_shard_shuffle_matches_scalar_oracle():
    import pandas as pd
    import ray.data as rd

    from engine.analytics import shard_shuffle, shuffle_key

    ids = np.array(
        [0, 1, 5, 17, 999_983, 2**40 + 3, 123456789, 42, 7, 8, 2**55, 3],
        dtype=np.int64,
    )
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    out = (
        shard_shuffle(ds, shard_size=3, num_partitions=4, seed=99)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sk = shuffle_key(ids, 99)
    order = np.argsort(sk)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids), dtype=np.int64)
    exp = (
        pd.DataFrame(
            {
                "doc_id": ids,
                "skey": sk,
                "shard_id": rank // 3,
                "pos_in_shard": rank % 3,
            }
        )
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp[out.columns.tolist()])
    # keys are bijective -> every shard except possibly the last is full
    sizes = out.groupby("shard_id").size()
    assert (sizes.iloc[:-1] == 3).all() if len(sizes) > 1 else True


@pytest.mark.usefixtures("ray_session")
def test_shard_shuffle_block_layout_invariant():
    import ray.data as rd

    from engine.analytics import shard_shuffle

    ids = np.arange(1000, dtype=np.int64) * 13 + 5
    t = pa.table({"doc_id": pa.array(ids)})
    a = (
        shard_shuffle(rd.from_arrow(t), shard_size=64, seed=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        shard_shuffle(rd.from_arrow(t).repartition(7), shard_size=64, seed=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (a.values == b.values).all()
    # a different seed is a different permutation
    c = (
        shard_shuffle(rd.from_arrow(t), shard_size=64, seed=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (a["shard_id"].values != c["shard_id"].values).any()
