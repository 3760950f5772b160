"""X60 grid-accelerated DBSCAN (engine/dbscan.py): brute-force O(n²)
scalar reference on adversarial point sets (exact-eps chains, border
ties across clusters, duplicate coordinates, min_pts=1 singleton
clusters), block-layout invariance, and sf0.001 DuckDB value parity
(engine ≡ mirror ≡ brute, three ways)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from engine.dbscan import EPS, MIN_PTS, dbscan, sql_dbscan_events, synth_points

SF = "/root/testdata/sf0.001"


def _brute(ids: np.ndarray, x: np.ndarray, y: np.ndarray, eps: int, min_pts: int):
    """Independent scalar DBSCAN: full pairwise matrix + min-label
    propagation to a fixed point."""
    n = ids.size
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    m = d2 <= eps * eps
    core = m.sum(axis=1) >= min_pts
    adj = m & core[:, None] & core[None, :]
    np.fill_diagonal(adj, False)
    lab = ids.astype(np.int64).copy()
    while True:
        nl = lab.copy()
        for i in range(n):
            if core[i]:
                nb = np.nonzero(adj[i])[0]
                if nb.size:
                    nl[i] = min(lab[i], lab[nb].min())
        if np.array_equal(nl, lab):
            break
        lab = nl
    cluster = np.full(n, -1, dtype=np.int64)
    cluster[core] = lab[core]
    for i in range(n):
        if not core[i]:
            nb = np.nonzero(m[i] & core)[0]
            if nb.size:
                cluster[i] = lab[nb].min()
    return core, cluster


def _run(ids, x, y, eps, min_pts, num_partitions=8, blocks=4):
    pts = rd.from_arrow(
        pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
            }
        )
    ).repartition(blocks)
    out = (
        dbscan(pts, eps, min_pts, num_partitions=num_partitions)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    return out


def _check(ids, x, y, eps, min_pts, **kw):
    ids = np.asarray(ids, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = _run(ids, x, y, eps, min_pts, **kw)
    core, cluster = _brute(ids, x, y, eps, min_pts)
    order = np.argsort(ids)
    assert np.array_equal(out["id"].to_numpy(), ids[order])
    assert np.array_equal(out["x"].to_numpy(), x[order])
    assert np.array_equal(out["y"].to_numpy(), y[order])
    assert np.array_equal(out["is_core"].to_numpy(), core[order]), "core flags"
    assert np.array_equal(out["cluster"].to_numpy(), cluster[order]), "clusters"
    return out


def test_two_blobs_and_noise():
    rng = np.random.default_rng(7)
    bx = np.r_[rng.integers(0, 30, 40), rng.integers(200, 240, 40)]
    by = np.r_[rng.integers(0, 30, 40), rng.integers(500, 540, 40)]
    nx = rng.integers(1000, 9000, 30)
    ny = rng.integers(1000, 9000, 30)
    x = np.r_[bx, nx]
    y = np.r_[by, ny]
    ids = np.arange(x.size) * 7 + 3  # non-contiguous ids
    out = _check(ids, x, y, eps=15, min_pts=4)
    assert (out["cluster"] >= 0).sum() >= 80  # both blobs clustered


def test_chain_at_exactly_eps():
    # collinear chain spaced EXACTLY eps apart: with min_pts=3 every
    # interior point is core (self + 2 neighbors at d == eps, boundary
    # included), endpoints are border -> ONE cluster, no noise
    n = 10
    ids = np.arange(n, dtype=np.int64) + 100
    x = np.arange(n, dtype=np.int64) * 20
    y = np.zeros(n, dtype=np.int64)
    out = _check(ids, x, y, eps=20, min_pts=3)
    assert set(out["cluster"]) == {100 + 1}  # min core id = second point


def test_border_tie_takes_min_cluster_label():
    # two 4-point cliques (cores) with one equidistant point between
    # them reaching one core of each -> border of BOTH clusters ->
    # deterministic MIN cluster label
    a = [(0, 0), (0, 1), (1, 0), (10, 0)]
    b = [(30, 0), (30, 1), (31, 0), (20, 0)]
    pts = a + b + [(15, 0)]
    ids = np.array([5, 6, 7, 8, 40, 41, 42, 43, 99], dtype=np.int64)
    x = np.array([p[0] for p in pts], dtype=np.int64)
    y = np.array([p[1] for p in pts], dtype=np.int64)
    out = _check(ids, x, y, eps=10, min_pts=4)
    row = out[out["id"] == 99].iloc[0]
    assert not row["is_core"] and row["cluster"] == 5


def test_duplicate_coordinates_are_mutual_neighbors():
    # min_pts copies at one coordinate are all cores of one cluster
    ids = np.array([3, 11, 27, 50, 1000], dtype=np.int64)
    x = np.array([500, 500, 500, 500, 9000], dtype=np.int64)
    y = np.array([700, 700, 700, 700, 9000], dtype=np.int64)
    out = _check(ids, x, y, eps=5, min_pts=4)
    assert list(out[out["id"] != 1000]["cluster"]) == [3, 3, 3, 3]
    assert out[out["id"] == 1000]["cluster"].iloc[0] == -1


@pytest.mark.parametrize(
    "x, min_pts, want",
    [
        ([0, 1000], 2, [-1, -1]),  # all noise: no core point at all
        ([0, 1, 2], 3, [1, 1, 1]),  # one core, no core-core pair
    ],
    ids=["all_noise", "lone_core"],
)
def test_no_core_core_pair(x, min_pts, want):
    # The core-label side of the border join is then empty; the
    # answer still comes back (once crashed in hash_join).
    out = _check(np.arange(len(x)), x, np.zeros(len(x)), eps=1, min_pts=min_pts)
    assert list(out["cluster"]) == want


def test_min_pts_one_every_point_own_cluster_unless_adjacent():
    ids = np.array([2, 4, 9], dtype=np.int64)
    x = np.array([0, 1000, 1001], dtype=np.int64)
    y = np.array([0, 0, 0], dtype=np.int64)
    out = _check(ids, x, y, eps=5, min_pts=1)
    assert list(out["cluster"]) == [2, 4, 4]
    assert out["is_core"].all()


def test_layout_invariance():
    rng = np.random.default_rng(13)
    x = rng.integers(0, 400, 200).astype(np.int64)
    y = rng.integers(0, 400, 200).astype(np.int64)
    ids = rng.permutation(200).astype(np.int64) * 3
    a = _run(ids, x, y, 25, 4, blocks=1, num_partitions=4)
    b = _run(ids, x, y, 25, 4, blocks=13, num_partitions=16)
    pd.testing.assert_frame_equal(a, b)


def test_gate_sf0001_three_way():
    import pyarrow.parquet as pq

    from engine.queries import q_dbscan_events

    out = (
        q_dbscan_events(SF).to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    ref = (
        con.execute(sql_dbscan_events())
        .df()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ref = ref.astype({c: out[c].dtype for c in out.columns})
    pd.testing.assert_frame_equal(out, ref[out.columns])
    # brute third engine on the derived points
    ids = out["event_id"].to_numpy()
    core, cluster = _brute(
        ids, out["x"].to_numpy(), out["y"].to_numpy(), EPS, MIN_PTS
    )
    assert np.array_equal(out["is_core"].to_numpy(), core)
    assert np.array_equal(out["cluster"].to_numpy(), cluster)
    # the planted structure is actually live: clusters AND noise exist
    assert (out["cluster"] >= 0).sum() > 400
    assert (out["cluster"] == -1).sum() > 100
    assert out["cluster"][out["cluster"] >= 0].nunique() >= 5


def test_synth_points_matches_constants():
    # spot-check the derivation against straight-line scalar arithmetic
    from engine.dbscan import (
        BLOB,
        CAX,
        CAY,
        CBX,
        CBY,
        CENT_DIV,
        CLUSTER_LT,
        CLUSTER_MOD,
        CSPAN,
        M31,
        MIX1,
        MIX2,
        WORLD,
    )

    n = 1000
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"event_id": pa.array(ids)}))
    got = synth_points(ds, n).to_pandas().sort_values("id").reset_index(drop=True)
    ncent = max(n // CENT_DIV, 1)
    for i in (0, 1, 17, 999):
        h1 = (i * MIX1) % M31
        h2 = (i * MIX2) % M31
        if h1 % CLUSTER_MOD < CLUSTER_LT:
            c = (h1 // CLUSTER_MOD) % ncent
            ex = (c * CAX + CBX) % CSPAN + h2 % BLOB
            ey = (c * CAY + CBY) % CSPAN + (h2 // BLOB) % BLOB
        else:
            ex = h2 % WORLD
            ey = (h2 // WORLD) % WORLD
        assert got.loc[i, "x"] == ex and got.loc[i, "y"] == ey


# ----------------- round-5 density contract: sub-cell split-and-widen


def test_forced_divisor_equals_classic():
    """cell_divisor k > 1 (sub-cell split + widened stencil) is
    bit-identical to the classic side=eps grid on ordinary data."""
    rng = np.random.default_rng(19)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    x = rng.integers(0, 600, n)
    y = rng.integers(0, 600, n)
    base = _run(ids, x, y, 40, 4)
    for k in (2, 3, 5):
        pts = rd.from_arrow(
            pa.table(
                {"id": pa.array(ids), "x": pa.array(x), "y": pa.array(y)}
            )
        ).repartition(4)
        out = (
            dbscan(pts, 40, 4, num_partitions=8, cell_divisor=k)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(base, out)


def test_auto_split_on_planted_dense_cell_is_exact():
    """A planted ultra-dense eps-cell (far beyond max_cell_points)
    must auto-split — and stay exact vs the brute reference."""
    rng = np.random.default_rng(23)
    n_dense = 600
    # one 40x40 eps-cell packed with 600 points, plus sparse scatter
    dx = rng.integers(400, 440, n_dense)
    dy = rng.integers(400, 440, n_dense)
    sx = rng.integers(0, 4000, 80)
    sy = rng.integers(0, 4000, 80)
    x = np.r_[dx, sx].astype(np.int64)
    y = np.r_[dy, sy].astype(np.int64)
    ids = np.arange(x.size, dtype=np.int64)
    pts = rd.from_arrow(
        pa.table({"id": pa.array(ids), "x": pa.array(x), "y": pa.array(y)})
    ).repartition(4)
    out = (
        dbscan(pts, 40, 5, num_partitions=8, max_cell_points=50)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    core, cluster = _brute(ids, x, y, 40, 5)
    assert np.array_equal(out["is_core"].to_numpy(), core)
    assert np.array_equal(out["cluster"].to_numpy(), cluster)


def test_unsplittable_pileup_raises_loudly():
    """All points at ONE coordinate: no grid refinement can bound the
    cell — the density contract must raise with the computed bound,
    not OOM silently."""
    n = 200
    ids = np.arange(n, dtype=np.int64)
    x = np.full(n, 123, dtype=np.int64)
    y = np.full(n, 456, dtype=np.int64)
    pts = rd.from_arrow(
        pa.table({"id": pa.array(ids), "x": pa.array(x), "y": pa.array(y)})
    )
    with pytest.raises(ValueError, match="unsplittable dense cell"):
        dbscan(pts, 40, 5, max_cell_points=50).materialize()


@pytest.mark.parametrize(
    "x, eps, why",
    [
        # max(x) // side + 2 * radius reaches 2^21: kx bits spill into ky's
        ([0, (1 << 21) - 2], 1, "too large"),
        # a negative cell index ORs its sign bits over ky
        ([-5, 10], 4, "negative"),
    ],
)
def test_packed_cell_key_bound_raises(x, eps, why):
    """Coordinates whose cell indices do not fit the 21-bit halves of
    the packed ``kx << 21 | ky`` key must raise, not collide."""
    pts = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([0, 1], pa.int64()),
                "x": pa.array(x, pa.int64()),
                "y": pa.array([0, 0], pa.int64()),
            }
        )
    )
    with pytest.raises(ValueError, match="packed cell key"):
        dbscan(pts, eps, 2, max_cell_points=None).materialize()


def test_packed_cell_key_bound_edge_fits():
    """One below the bound still runs: two neighbors at the top cell
    form one cluster."""
    pts = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([0, 1], pa.int64()),
                "x": pa.array([(1 << 21) - 4, (1 << 21) - 3], pa.int64()),
                "y": pa.array([0, 0], pa.int64()),
            }
        )
    )
    out = dbscan(pts, 1, 2, max_cell_points=None).to_pandas()
    assert sorted(out["cluster"]) == [0, 0]


def test_contract_disabled_matches_default():
    """max_cell_points=None (no probe, classic grid) equals the
    default probing path on data under the cap."""
    rng = np.random.default_rng(29)
    n = 200
    ids = np.arange(n, dtype=np.int64)
    x = rng.integers(0, 500, n)
    y = rng.integers(0, 500, n)
    pts = rd.from_arrow(
        pa.table({"id": pa.array(ids), "x": pa.array(x), "y": pa.array(y)})
    ).repartition(3)
    a = (
        dbscan(pts, 40, 4, max_cell_points=None)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    b = (
        dbscan(pts, 40, 4)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
