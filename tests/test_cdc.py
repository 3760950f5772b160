"""X45 CDC upsert / snapshot-merge tests: brute pandas oracle on a
randomized base+changelog (both routes, forced by pinning
``engine.joins.BROADCAST_MAX_KEYS``), the documented tie semantics,
block-layout invariance, and DuckDB gate parity."""

import duckdb
import numpy as np
import pandas as pd
import pytest


def _brute(base: pd.DataFrame, cl: pd.DataFrame, key="k") -> pd.DataFrame:
    b = base.copy()
    b["op"] = "u"
    b["_src"] = 0
    c = cl.copy()
    c["_src"] = 1
    allr = pd.concat([b, c[list(b.columns)]], ignore_index=True)
    allr = allr.sort_values([key, "seq", "_src", "op"], kind="stable")
    w = allr.drop_duplicates(subset=[key], keep="last")
    return (
        w[w["op"] == "u"]
        .drop(columns=["op", "_src"])
        .sort_values(key)
        .reset_index(drop=True)
    )


def _mk(n=4000, m=1100, seed=7):
    rng = np.random.default_rng(seed)
    base = pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "seq": (np.arange(n) % 5).astype(np.int64),
            "val": rng.integers(0, 1000, n).astype(np.int64),
            "tag": np.array([f"b{i % 9}" for i in range(n)]),
        }
    )
    cl = pd.DataFrame(
        {
            "k": rng.integers(0, n + 500, m).astype(np.int64),
            "seq": rng.integers(0, 9, m).astype(np.int64),
            "val": rng.integers(0, 1000, m).astype(np.int64),
            "tag": np.array([f"c{i % 9}" for i in range(m)]),
            "op": np.where(rng.random(m) < 0.3, "d", "u"),
        }
    )
    return base, cl


# BROADCAST_MAX_KEYS pins that force each route
_ROUTES = {"broadcast": 1 << 40, "shuffle": 0}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_snapshot_merge_matches_brute_oracle(ray_session, route, monkeypatch):
    import ray.data as rd

    import engine.joins as joins
    from engine.cdc import snapshot_merge

    monkeypatch.setattr(joins, "BROADCAST_MAX_KEYS", _ROUTES[route])
    base, cl = _mk()
    exp = _brute(base, cl)
    got = snapshot_merge(
        rd.from_pandas(base).repartition(7),
        rd.from_pandas(cl).repartition(5),
        key="k",
        num_partitions=8,
    ).to_pandas()
    got = got[exp.columns].sort_values("k").reset_index(drop=True)
    assert got.equals(exp)


def test_tie_semantics(ray_session, monkeypatch):
    """seq tie across sources -> changelog wins; full tie within the
    changelog -> upsert beats delete; base strictly greater -> base."""
    import ray.data as rd

    import engine.joins as joins
    from engine.cdc import snapshot_merge

    base = pd.DataFrame(
        {"k": np.int64([1, 2, 3]), "seq": np.int64([5, 5, 5]), "val": np.int64([10, 20, 30])}
    )
    cl = pd.DataFrame(
        {
            "k": np.int64([1, 2, 2, 3, 9]),
            "seq": np.int64([5, 5, 5, 4, 1]),
            "val": np.int64([11, 21, 22, 31, 99]),
            "op": ["u", "d", "u", "d", "u"],
        }
    )
    for route, max_keys in _ROUTES.items():
        monkeypatch.setattr(joins, "BROADCAST_MAX_KEYS", max_keys)
        got = (
            snapshot_merge(rd.from_pandas(base), rd.from_pandas(cl), key="k")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # k=1: tie -> changelog upsert val 11
        # k=2: full-tie u vs d within changelog -> upsert val 21/22
        #      winner between the two equal (seq,src,op='u') rows is
        #      the later-sorted one; the brute rule is the contract:
        exp = _brute(base, cl)
        assert got[exp.columns].equals(exp), route
        assert 11 in got["val"].values  # cl won the cross-source tie
        assert 30 in got["val"].values  # base beat the older delete
        assert 99 in got["val"].values  # brand-new key inserted


def test_block_layout_invariance(ray_session):
    import ray.data as rd

    from engine.cdc import snapshot_merge

    base, cl = _mk(n=1500, m=700, seed=11)
    outs = []
    for bp, cp in [(1, 1), (13, 6)]:
        got = snapshot_merge(
            rd.from_pandas(base).repartition(bp),
            rd.from_pandas(cl).repartition(cp),
            key="k",
        ).to_pandas()
        outs.append(got.sort_values("k").reset_index(drop=True))
    assert outs[0].equals(outs[1])


def test_gate_parity_sf0001(ray_session):
    from engine.queries import REGISTRY, _SQL_SNAPSHOT_MERGE

    fn, _ = REGISTRY["snapshot_merge_orders"]
    ray_df = fn("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW orders AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/orders.parquet')"
    )
    sql_df = con.sql(_SQL_SNAPSHOT_MERGE).df()
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols).reset_index(drop=True)
    b = sql_df[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c
