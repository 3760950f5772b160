"""As-of join operator (engine/asof.py): brute-force equivalence,
tie-break determinism, unmatched-row fill, both directions, and the
driver-gate query vs its DuckDB ASOF JOIN oracle at sf0.001."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _brute_asof(l: pd.DataFrame, r: pd.DataFrame, key, on, on_r, payload,
                direction="backward", tie_breaks=()):
    """O(n*m) reference: per left row scan all right rows."""
    rows = []
    for _, lr in l.iterrows():
        cand = r[r[key] == lr[key]]
        if direction == "backward":
            cand = cand[cand[on] <= lr[on]]
            best_on = cand[on].max() if len(cand) else None
        else:
            cand = cand[cand[on] >= lr[on]]
            best_on = cand[on].min() if len(cand) else None
        out = dict(lr)
        if best_on is None:
            out[on_r] = None
            for c in payload:
                out[c] = None
        else:
            cand = cand[cand[on] == best_on]
            if tie_breaks:
                cand = cand.sort_values(list(tie_breaks), kind="mergesort")
            win = cand.iloc[-1]
            out[on_r] = best_on
            for c in payload:
                out[c] = win[c]
        rows.append(out)
    return pd.DataFrame(rows)


def _mk(seed=7, n_left=400, n_right=150, n_keys=12):
    rng = np.random.default_rng(seed)
    l = pd.DataFrame(
        {
            "lid": np.arange(n_left, dtype=np.int64),
            "k": rng.integers(0, n_keys, n_left).astype(np.int64),
            "t": rng.integers(0, 1000, n_left).astype(np.int64),
            "lv": rng.normal(size=n_left),
        }
    )
    r = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys + 3, n_right).astype(np.int64),
            "t": rng.integers(0, 1000, n_right).astype(np.int64),
            "rid": np.arange(n_right, dtype=np.int64),
            "rv": rng.normal(size=n_right),
        }
    )
    # plant exact (k, t) duplicates on the right to exercise tie-breaks
    dup = r.iloc[:10].copy()
    dup["rid"] = dup["rid"] + 10_000
    dup["rv"] = dup["rv"] + 1.0
    r = pd.concat([r, dup], ignore_index=True)
    return l, r


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("threshold", [0, 65_536])  # 0 = force shuffle path
def test_asof_join_matches_bruteforce(ray_session, direction, threshold):
    import ray
    from engine.asof import asof_join

    l, r = _mk()
    got = (
        asof_join(
            ray.data.from_pandas(l).repartition(5),
            ray.data.from_pandas(r).repartition(4),
            key="k",
            on="t",
            direction=direction,
            tie_breaks=("rid",),
            num_partitions=7,
            broadcast_threshold=threshold,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    want = (
        _brute_asof(l, r, "k", "t", "t_r", ["rid", "rv"], direction, ("rid",))
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["lid", "k", "t", "lv", "t_r", "rid", "rv"]
    assert len(got) == len(l)
    for c in ["lid", "k", "t"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all()
    # matched flags agree; unmatched rows are null on the Ray side
    gm = got["rid"].notna().to_numpy()
    wm = want["rid"].notna().to_numpy()
    assert (gm == wm).all()
    assert gm.sum() > 0 and (~gm).sum() > 0  # both paths exercised
    for c in ["t_r", "rid"]:
        assert (
            got.loc[gm, c].to_numpy().astype(np.int64)
            == want.loc[wm, c].to_numpy().astype(np.int64)
        ).all()
    np.testing.assert_allclose(
        got.loc[gm, "rv"].to_numpy(dtype=np.float64),
        want.loc[wm, "rv"].to_numpy(dtype=np.float64),
    )


def test_asof_tie_break_picks_max(ray_session):
    """Two right rows with identical (k, t): the max tie-break column
    must win regardless of block/partition order."""
    import ray
    from engine.asof import asof_join

    l = pd.DataFrame({"k": [1, 1], "t": np.array([10, 5], dtype=np.int64)})
    r = pd.DataFrame(
        {
            "k": [1, 1, 1],
            "t": np.array([5, 5, 7], dtype=np.int64),
            "rid": np.array([3, 9, 1], dtype=np.int64),
        }
    )
    got = (
        asof_join(
            ray.data.from_pandas(l),
            ray.data.from_pandas(r),
            key="k",
            on="t",
            tie_breaks=("rid",),
        )
        .to_pandas()
        .sort_values("t")
        .reset_index(drop=True)
    )
    # t=5 matches the (5, rid=9) duplicate-winner; t=10 matches t=7
    assert got["rid"].tolist() == [9, 1]
    assert got["t_r"].tolist() == [5, 7]


def test_asof_fill_keeps_integer_dtype(ray_session):
    import ray
    from engine.asof import asof_join

    l = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                      "t": np.array([10, 10], dtype=np.int64)})
    r = pd.DataFrame({"k": np.array([1], dtype=np.int64),
                      "t": np.array([4], dtype=np.int64),
                      "rid": np.array([7], dtype=np.int64)})
    out = asof_join(
        ray.data.from_pandas(l),
        ray.data.from_pandas(r),
        key="k",
        on="t",
        fill={"rid": -1, "t_r": 0},
    )
    # drop Ray's zero-column empty blocks (map_batches UDFs never run
    # on empty blocks, so conform_blocks cannot retype them — the
    # documented keyed_partition_map limit)
    tbl = pa.concat_tables(
        [t for t in (ray.get(ref) for ref in out.to_arrow_refs()) if t.num_columns]
    )
    assert tbl.schema.field("rid").type == pa.int64()
    df = tbl.to_pandas().sort_values("k")
    assert df["rid"].tolist() == [7, -1]  # k=2 has no match -> filled


def test_asof_collision_and_direction_errors(ray_session):
    import ray
    from engine.asof import asof_join

    l = pd.DataFrame({"k": [1], "t": [1], "rv": [0.0]})
    r = pd.DataFrame({"k": [1], "t": [1], "rv": [1.0]})
    with pytest.raises(ValueError, match="collides"):
        asof_join(ray.data.from_pandas(l), ray.data.from_pandas(r), key="k", on="t")
    with pytest.raises(ValueError, match="direction"):
        asof_join(
            ray.data.from_pandas(l),
            ray.data.from_pandas(r.rename(columns={"rv": "rv2"})),
            key="k",
            on="t",
            direction="sideways",
        )


def test_asof_events_query_vs_duckdb(ray_session):
    """The driver-gate query vs its DuckDB ASOF JOIN oracle at
    sf0.001 — value-for-value on every column."""
    import duckdb

    from engine.queries import REGISTRY

    sf = "/root/testdata/sf0.001"
    fn, sql = REGISTRY["asof_events"]
    got = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    want = con.execute(sql).df()
    assert sorted(got.columns) == sorted(want.columns)
    key = ["event_id"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert len(got) == len(want) and len(got) > 0
    assert got["purchase_event_id"].min() == -1  # unmatched path exercised
    for c in want.columns:
        g, w = got[c], want[c]
        if g.dtype.kind == "f":
            np.testing.assert_allclose(g.to_numpy(), w.to_numpy())
        else:
            assert (g.to_numpy() == w.to_numpy()).all(), c


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_asof_string_key_falls_back_to_pandas_probe(ray_session, direction):
    """r5: the broadcast path's Arrow struct-searchsorted kernel only
    engages for integer/temporal keys; a STRING key must route through
    the merge_asof fallback with identical values (brute-checked)."""
    import ray
    from engine.asof import asof_join

    l, r = _mk()
    ls = l.copy()
    rs = r.copy()
    ls["k"] = "key" + ls["k"].astype(str)
    rs["k"] = "key" + rs["k"].astype(str)
    got = (
        asof_join(
            # from_arrow: a pandas block with a string column reports a
            # PandasBlockSchema (python types), which pa.schema rejects
            ray.data.from_arrow(pa.Table.from_pandas(ls)).repartition(3),
            ray.data.from_arrow(pa.Table.from_pandas(rs)).repartition(2),
            key="k",
            on="t",
            direction=direction,
            tie_breaks=("rid",),
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    want = (
        _brute_asof(ls, rs, "k", "t", "t_r", ["rid", "rv"], direction, ("rid",))
        .sort_values("lid")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_asof_null_keys_same_on_both_routes(ray_session):
    """Null integer keys and null ``on`` values raise on the broadcast
    route and on the shuffle route alike (the broadcast probe once
    read them as garbage int64s and matched a null-``on`` right row);
    null string keys match nothing on either route (merge_asof once
    paired them with null right keys)."""
    import ray
    from engine.asof import asof_join

    left = pa.table(
        {"lid": pa.array([0, 1, 2], pa.int64()), "k": pa.array([1, 1, 2], pa.int64()),
         "t": pa.array([5, 6, 7], pa.int64())}
    )
    right = pa.table(
        {"k": pa.array([1, 2], pa.int64()), "t": pa.array([4, 1], pa.int64()),
         "rv": pa.array([10, 20], pa.int64())}
    )

    def with_null(t: pa.Table, col: str) -> pa.Table:
        i = t.schema.get_field_index(col)
        vals = t[col].to_pylist()
        return t.set_column(i, col, pa.array([None] + vals[1:], t.schema.field(col).type))

    def run(lt, rt, threshold):
        return asof_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt), key="k", on="t",
            broadcast_threshold=threshold,
        ).to_pandas().sort_values("lid").reset_index(drop=True)

    for lt, rt, col in (
        (with_null(left, "k"), right, "'k'"),
        (with_null(left, "t"), right, "'t'"),
        (left, with_null(right, "k"), "'k'"),
        (left, with_null(right, "t"), "'t_r'"),
    ):
        for threshold in (0, 65_536):
            # raised on the driver, or in a task (Ray then wraps it)
            with pytest.raises(Exception, match=f"null value.*{col}") as err:
                run(lt, rt, threshold)
            assert isinstance(err.value, ValueError) or "ValueError: asof_join" in str(err.value)

    str_left = with_null(left.set_column(1, "k", left["k"].cast(pa.string())), "k")
    str_right = with_null(right.set_column(0, "k", right["k"].cast(pa.string())), "k")
    shuffled, broadcast = (run(str_left, str_right, th) for th in (0, 65_536))
    pd.testing.assert_frame_equal(shuffled, broadcast, check_dtype=False)
    assert shuffled["rv"].isna().tolist() == [True, True, False]
