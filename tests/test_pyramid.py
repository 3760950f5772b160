"""X61 tile-pyramid tests: brute numpy oracle level-by-level, local vs
distributed coarsening path equality, per-level conservation
invariants, block-layout invariance, and sf0.001 DuckDB mirror parity
of the gate query."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from engine.pyramid import sql_tile_pyramid_events, tile_pyramid, tile_pyramid_events

SF = "/root/testdata/sf0.001"
BITS = 12  # small synthetic grid for the brute oracle
FINEST = 5


def _synth(n: int = 20_000, seed: int = 3):
    rng = np.random.RandomState(seed)
    x = rng.randint(0, 1 << BITS, n).astype(np.int64)
    y = rng.randint(0, 1 << BITS, n).astype(np.int64)
    w = rng.randint(-50, 200, n).astype(np.int64)  # negatives live
    return x, y, w


def _brute(x, y, w, finest):
    """Every level aggregated independently from the raw points."""
    rows = []
    for lv in range(finest + 1):
        sh = BITS - lv
        df = pd.DataFrame({"tx": x >> sh, "ty": y >> sh, "w": w})
        g = df.groupby(["tx", "ty"], sort=False).agg(
            cnt=("w", "size"), wsum=("w", "sum")
        )
        g = g.reset_index()
        g.insert(0, "level", lv)
        rows.append(g)
    out = pd.concat(rows, ignore_index=True).astype(np.int64)
    return out.sort_values(["level", "tx", "ty"]).reset_index(drop=True)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = ["level", "tx", "ty", "cnt", "wsum"]
    return (
        df[cols]
        .astype(np.int64)
        .sort_values(["level", "tx", "ty"])
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def synth_ds(ray_session):
    x, y, w = _synth()
    ds = rd.from_arrow(
        __import__("pyarrow").table({"x": x, "y": y, "w": w})
    ).repartition(7)
    return ds, (x, y, w)


def test_pyramid_local_path_vs_brute(synth_ds):
    ds, (x, y, w) = synth_ds
    out = tile_pyramid(ds, BITS, FINEST).to_pandas()
    pd.testing.assert_frame_equal(_norm(out), _brute(x, y, w, FINEST))


def test_pyramid_distributed_path_equals_local(synth_ds, monkeypatch):
    import engine.pyramid as pyramid

    ds, (x, y, w) = synth_ds
    # 0 forces the per-level distributed combiner merge
    monkeypatch.setattr(pyramid, "LOCAL_MAX_TILES", 0)
    out = tile_pyramid(ds, BITS, FINEST, num_partitions=5).to_pandas()
    pd.testing.assert_frame_equal(_norm(out), _brute(x, y, w, FINEST))


def test_pyramid_conservation_and_level_sizes(synth_ds):
    ds, (x, y, w) = synth_ds
    out = _norm(tile_pyramid(ds, BITS, FINEST).to_pandas())
    n, ws = len(x), int(w.sum())
    for lv in range(FINEST + 1):
        g = out[out.level == lv]
        # every level partitions the points: counts and weights conserve
        assert int(g.cnt.sum()) == n
        assert int(g.wsum.sum()) == ws
        assert len(g) <= (1 << lv) ** 2
        assert (g.tx < (1 << lv)).all() and (g.ty < (1 << lv)).all()
        assert (g.tx >= 0).all() and (g.ty >= 0).all()
    # level 0 is the single root tile
    assert len(out[out.level == 0]) == 1


def test_pyramid_layout_invariance(synth_ds):
    ds, _ = synth_ds
    a = _norm(tile_pyramid(ds, BITS, FINEST).to_pandas())
    b = _norm(tile_pyramid(ds.repartition(23), BITS, FINEST).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_pyramid_gate_sql_parity_sf0001(ray_session):
    from engine.queries import q_tile_pyramid_events

    ray_df = _norm(q_tile_pyramid_events(SF).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    sql_df = _norm(con.sql(sql_tile_pyramid_events()).df())
    pd.testing.assert_frame_equal(ray_df, sql_df)
