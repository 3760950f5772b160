"""Exact grid-accelerated DBSCAN spatial clustering (X60).

Density-based clustering (Ester et al. 1996, KDD) over integer planar
points — the standard geospatial clustering operator (hot-spot
detection, POI grouping, GPS-trace stop detection) that the tile /
PIP / kNN join family doesn't cover. EXACT semantics, deterministic
and layout-independent:

  neighbor count  n_p = |{q : d²(p,q) <= eps²}|  (includes p itself —
                  the scikit-learn convention);
  core            n_p >= min_pts;
  cluster label   min core id of the connected component of the
                  core-core eps-adjacency graph (isolated cores keep
                  their own id);
  border          non-core with >=1 core eps-neighbor: label = MIN
                  over its core neighbors' cluster labels (the
                  deterministic tiebreak for DBSCAN's classically
                  order-dependent border assignment);
  noise           everything else: label = -1.

Upstream parity: no analogue in GeoCoordinateConverter (record-at-a-
time CLI); brief-mandated geospatial analytics (the clustering member
of the SURVEY §2.4 spatial-join family — J3 PIP groups points by
polygon, J4 kNN by reference points, X60 groups them by density).

Scale shape (one corpus-scale shuffle, everything after is reduced):

1. Each point replicates into its home grid cell (side = eps) plus
   the 8 neighbors — 9 rows of a ~40 B (cell, id, x, y, home)
   projection. Every eps-neighbor of p lies within p's 3x3 cell
   block, so p's HOME-cell group contains its complete neighborhood.
2. ONE cell co-partition (`keyed_partition_map`): per cell, a
   vectorized |home| x |group| squared-distance block emits (a) each
   home point's exact neighbor count — degrees are complete locally,
   no second pass — and (b) the directed eps-neighbor pairs.
   Singleton cells (isolated noise — the common case in sparse
   regions) take a vectorized fast path; the per-cell Python loop is
   CELL-scale, not row-scale. Per-cell memory is the |home| x |group|
   int64 block — the density contract, ENFORCED since round 5: an
   occupancy probe auto-splits to side-ceil(eps/k) sub-cells with a
   widened (2k+1)x(2k+1) stencil when a cell exceeds
   ``max_cell_points``, and raises loudly when even the split can't
   bound it (see :func:`dbscan`).
3. Core flags attach to pair endpoints via the size-adaptive
   `flag_join` (broadcast sorted id array under a cardinality guard,
   else bucketed hash join). Core-core edges feed the existing
   distributed connected-components machinery (min-label, pointer
   jumping); border labels are a candidate-scale hash join + grouped
   MIN; the final verdict is ONE sentinel-union id co-partition.
   The union input is materialized first — the Ray 2.49
   Union-before-sort backpressure trickle documented at
   engine/dedupe.py::both_sides.

The gate corpus (`synth_points`) plants ncent = max(n // 128, 1)
Gaussian-free integer blobs (160x160, ~90 points each — constant
density at every scale, so per-cell work is bounded) plus 30%
uniform noise over a 16384x16384 world; all arithmetic is exact
integer and shared with the DuckDB mirror via the module constants
below (change together)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

# --- gate-corpus derivation constants (single source: engine + SQL mirror)
MIX1 = 2654435761
MIX2 = 1566083941
M31 = 2**31
WORLD = 16384
BLOB = 160
CSPAN = WORLD - BLOB  # centers in [0, CSPAN) keep blobs in-bounds
CAX, CBX = 40503, 1601
CAY, CBY = 69621, 907
CLUSTER_MOD, CLUSTER_LT = 10, 7  # h1 % 10 < 7 -> blob member
CENT_DIV = 128  # ncent = max(n // 128, 1)
EPS = 40
MIN_PTS = 5

_TAG_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),
        ("a", pa.int64()),
        ("b", pa.int64()),
        ("c", pa.int64()),
        ("d", pa.int64()),
    ]
)


def synth_points(ds_ids: Dataset, n_total: int, id_col: str = "event_id") -> Dataset:
    """Deterministic planted-cluster points from integer ids (the gate
    corpus; the SQL mirror recomputes every value from the same
    constants). 70% of ids join one of max(n // 128, 1) 160x160 blobs
    at LCG-placed centers; 30% scatter uniformly over the world."""
    ncent = max(n_total // CENT_DIV, 1)

    def mk(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h1 = (ids * MIX1) % M31
        h2 = (ids * MIX2) % M31
        is_blob = (h1 % CLUSTER_MOD) < CLUSTER_LT
        c = (h1 // CLUSTER_MOD) % ncent
        bx = (c * CAX + CBX) % CSPAN + h2 % BLOB
        by = (c * CAY + CBY) % CSPAN + (h2 // BLOB) % BLOB
        nx = h2 % WORLD
        ny = (h2 // WORLD) % WORLD
        return pa.table(
            {
                "id": pa.array(ids),
                "x": pa.array(np.where(is_blob, bx, nx)),
                "y": pa.array(np.where(is_blob, by, ny)),
            }
        )

    return ds_ids.map_batches(mk, batch_format="pyarrow")


def _replicate(side: int, radius: int, id_col: str, x_col: str, y_col: str):
    """Stencil replication at grid side ``side`` with stencil radius
    ``radius``: point -> one row per (2r+1)x(2r+1) target cell,
    home-flagged on the (0,0) offset. Correctness: every eps-neighbor
    q of p has |x_p - x_q| <= eps, so |cx_p - cx_q| <= ceil(eps/side)
    = radius — p's HOME-cell group holds its complete neighborhood.
    Packed cell key (cx+r, cy+r) into one int64 so the co-partition
    hashes a single column. The classic eps-grid is side=eps, r=1
    (9x); the sub-cell split (density contract) is side=ceil(eps/k),
    r=k ((2k+1)² replication for a ~k² per-cell occupancy cut)."""
    offs = np.array(
        [(dx, dy) for dx in range(-radius, radius + 1)
         for dy in range(-radius, radius + 1)],
        dtype=np.int64,
    )
    dxs, dys = offs[:, 0], offs[:, 1]
    nrep = len(offs)
    home_m = (dxs == 0) & (dys == 0)

    def rep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = ids.size
        cx = x // side
        cy = y // side
        kx = np.repeat(cx, nrep) + np.tile(dxs, n) + radius
        ky = np.repeat(cy, nrep) + np.tile(dys, n) + radius
        cell = (kx << np.int64(21)) | ky
        return pa.table(
            {
                "cell": pa.array(cell),
                "id": pa.array(np.repeat(ids, nrep)),
                "x": pa.array(np.repeat(x, nrep)),
                "y": pa.array(np.repeat(y, nrep)),
                "home": pa.array(np.tile(home_m, n)),
            }
        )

    return rep


def _check_packable(pts: Dataset, side: int, radius: int, x_col: str, y_col: str) -> None:
    """Raise unless every packed cell key ``kx << 21 | ky`` is exact:
    the shifted cell coordinates must lie in [0, 2^21) for every
    point and stencil offset, or distinct cells collide silently."""
    from ray.data.aggregate import Max, Min

    agg = pts.aggregate(Min(x_col), Min(y_col), Max(x_col), Max(y_col))
    if agg[f"min({x_col})"] is None:  # no points
        return
    lo = min(agg[f"min({x_col})"], agg[f"min({y_col})"])
    hi = max(agg[f"max({x_col})"], agg[f"max({y_col})"])
    if lo < 0 or hi // side + 2 * radius >= 1 << 21:
        raise ValueError(
            f"coordinates [{lo}, {hi}] do not fit the packed cell key at "
            f"side {side}, radius {radius}: need 0 <= coord and "
            f"coord // side + 2 * radius < 2^21"
        )


def _max_cell_occupancy(
    pts: Dataset, side: int, x_col: str, y_col: str, num_partitions: int
) -> int:
    """Max home-cell occupancy at grid side ``side`` — the density
    probe behind the sub-cell split (one cheap (cell,cnt) combiner
    pass; no replication, no coordinates shipped)."""
    from engine.shuffle import grouped_count_sums

    def cells(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"cell": pa.array(((x // side) << np.int64(21)) | (y // side))})

    occ = grouped_count_sums(
        pts.map_batches(cells, batch_format="pyarrow"), "cell",
        num_partitions=min(num_partitions, 16),
    )
    m = occ.max("cnt")
    return int(m) if m is not None else 0


def _cell_pass(eps2: int):
    """Per-partition kernel: for every cell group, the home points'
    exact neighbor counts (kind 0: id, x, y, cnt) and the directed
    non-self eps-neighbor pairs (kind 1: ia, ib). Degrees are
    complete here because the group holds the full 3x3 stencil."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "kind": pd.Series(dtype=np.int8),
                "a": pd.Series(dtype=np.int64),
                "b": pd.Series(dtype=np.int64),
                "c": pd.Series(dtype=np.int64),
                "d": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "cell" not in df.columns:
            return empty
        order = np.lexsort((df["id"].to_numpy(), df["cell"].to_numpy()))
        cell = df["cell"].to_numpy()[order]
        ids = df["id"].to_numpy()[order]
        x = df["x"].to_numpy()[order]
        y = df["y"].to_numpy()[order]
        home = df["home"].to_numpy()[order]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        ends = np.r_[starts[1:], cell.size]
        sizes = ends - starts
        # fast path: singleton home cells (lone points) -> cnt 1, no pairs
        single = sizes == 1
        sidx = starts[single]
        s_home = home[sidx]
        f_ids = ids[sidx][s_home]
        f_x = x[sidx][s_home]
        f_y = y[sidx][s_home]
        k0a = [f_ids]
        k0b = [f_x]
        k0c = [f_y]
        k0d = [np.ones(f_ids.size, dtype=np.int64)]
        k1a: list[np.ndarray] = []
        k1b: list[np.ndarray] = []
        for s, e in zip(starts[~single], ends[~single]):
            hm = home[s:e]
            if not hm.any():
                continue
            gx, gy, gi = x[s:e], y[s:e], ids[s:e]
            hx, hy, hi = gx[hm], gy[hm], gi[hm]
            d2 = (hx[:, None] - gx[None, :]) ** 2 + (hy[:, None] - gy[None, :]) ** 2
            m = d2 <= eps2
            k0a.append(hi)
            k0b.append(hx)
            k0c.append(hy)
            k0d.append(m.sum(axis=1).astype(np.int64))
            ai, bi = np.nonzero(m)
            keep = hi[ai] != gi[bi]
            k1a.append(hi[ai][keep])
            k1b.append(gi[bi][keep])
        def cat(parts: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

        a0, b0, c0, d0 = cat(k0a), cat(k0b), cat(k0c), cat(k0d)
        a1, b1 = cat(k1a), cat(k1b)
        z1 = np.zeros(a1.size, dtype=np.int64)
        return pd.DataFrame(
            {
                "kind": np.r_[
                    np.zeros(a0.size, dtype=np.int8), np.ones(a1.size, dtype=np.int8)
                ],
                "a": np.r_[a0, a1],
                "b": np.r_[b0, b1],
                "c": np.r_[c0, z1],
                "d": np.r_[d0, z1],
            }
        )

    return part


def dbscan(
    pts: Dataset,
    eps: int,
    min_pts: int,
    *,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    num_partitions: int = 32,
    cell_divisor: int | None = None,
    max_cell_points: int | None = 4000,
) -> Dataset:
    """Exact DBSCAN over integer points (see module docstring for the
    semantics and the distributed shape). ids must be unique int64;
    coords non-negative with coord // side + 2 * radius < 2^21 (the
    packed cell key; checked, raises ValueError).

    Density contract (round-5 fix of the r4 'recorded, not coded'
    gap): the per-cell kernel's memory is the |home| x |group| int64
    block, so a 100x-density city-center cell breaks a worker. With
    ``max_cell_points = B`` (default 4000 ≈ a 1 GB worst-case block at
    r=1) a cheap occupancy probe finds the max home-cell count M at
    side eps; above B the grid SPLITS to sub-cells of side
    ceil(eps/k), k = ceil(sqrt(M/B)), and the stencil WIDENS to radius
    ceil(eps/side) — per-cell occupancy drops ~k² where the hot cell's
    points spread, at (2k+1)²/9 extra replication. A re-probe at the
    split side then RAISES loudly (computed bound in the message) if
    occupancy still exceeds B — the unsplittable case (a point
    pile-up at one coordinate) that no grid refinement can fix.
    ``cell_divisor`` forces k (no probe); ``max_cell_points=None``
    disables the contract (classic side=eps, r=1, no probe pass).
    All settings are bit-identical on data that fits either way
    (pytest-forced equivalence).

    Returns Dataset[id, x, y, is_core, cluster] (cluster = -1 noise).
    """
    from engine.analytics import flag_join
    from engine.dedupe import connected_components_distributed
    from engine.joins import hash_join
    from engine.shuffle import conform_blocks, grouped_count_sums, keyed_partition_map

    if cell_divisor is not None:
        k = int(cell_divisor)
        if k < 1:
            raise ValueError("cell_divisor must be >= 1")
        side = -(-eps // k)  # ceil: sub-cell side; k=1 -> classic side=eps
        radius = -(-eps // side)
    elif max_cell_points is None:
        side, radius = eps, 1
    else:
        # Iterative refinement: the sqrt step assumes uniform spread
        # inside the hot cell, so re-probe at each candidate side and
        # keep splitting while over the cap; side==1 is the floor (an
        # exact-coordinate pile-up no grid refinement can cut).
        k, side, radius = 1, eps, 1
        m_occ = _max_cell_occupancy(pts, side, x_col, y_col, num_partitions)
        while m_occ > max_cell_points and side > 1:
            k = max(k + 1, int(np.ceil(k * np.sqrt(m_occ / max_cell_points))))
            side = -(-eps // k)
            radius = -(-eps // side)
            m_occ = _max_cell_occupancy(pts, side, x_col, y_col, num_partitions)
        if m_occ > max_cell_points:
            raise ValueError(
                f"unsplittable dense cell: {m_occ} points share one "
                f"side-{side} sub-cell (cap {max_cell_points}); "
                f"worst-case kernel block is {m_occ} x "
                f"{(2 * radius + 1) ** 2} x {m_occ} x 8 B — raise "
                "max_cell_points (bigger workers) or pre-aggregate "
                "coincident points"
            )

    _check_packable(pts, side, radius, x_col, y_col)
    rep = pts.map_batches(
        _replicate(side, radius, id_col, x_col, y_col), batch_format="pyarrow"
    )
    # One corpus-scale pass; reused by three reduced consumers below —
    # materialized (neighbor-list scale, ~16-40 B/row; at 100 TB
    # checkpoint to parquet via engine/checkpoint.py instead).
    tagged = keyed_partition_map(
        rep, ["cell"], _cell_pass(eps * eps), num_partitions, out_schema=_TAG_SCHEMA
    ).materialize()

    def take_deg(b: pa.Table) -> pa.Table:
        b = b.filter(pa.compute.equal(b["kind"], 0))
        import pyarrow.compute as pc

        return pa.table(
            {
                "id": b["a"],
                "x": b["b"],
                "y": b["c"],
                "is_core": pc.greater_equal(b["d"], min_pts),
            }
        )

    def take_pairs(b: pa.Table) -> pa.Table:
        b = b.filter(pa.compute.equal(b["kind"], 1))
        return pa.table({"ia": b["a"], "ib": b["b"]})

    deg = tagged.map_batches(take_deg, batch_format="pyarrow")
    pairs = tagged.map_batches(take_pairs, batch_format="pyarrow")

    def typed(d: Dataset, cols: list) -> Dataset:
        # With no core points, or no core-core pair, a side has no
        # blocks and so no schema; hash_join needs its int64 columns.
        d = d.materialize()
        if d.schema() is not None:
            return d
        return rd.from_arrow(pa.schema([(c, pa.int64()) for c in cols]).empty_table())

    core_ids = typed(
        deg.map_batches(lambda b: b.filter(b["is_core"]).select(["id"]), batch_format="pyarrow"),
        ["id"],
    )
    pairs = flag_join(pairs, core_ids, "ia", "id", "core_a")
    pairs = flag_join(pairs, core_ids, "ib", "id", "core_b").materialize()

    def cc_edges(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.combine_chunks()  # align chunks before variadic kernels
        m = pc.and_(
            pc.and_(b["core_a"], b["core_b"]), pc.less(b["ia"], b["ib"])
        )
        b = b.filter(m)
        return pa.table({"id_a": b["ia"], "id_b": b["ib"]})

    labels = typed(
        connected_components_distributed(
            pairs.map_batches(cc_edges, batch_format="pyarrow")
        ).map_batches(lambda b: b.rename_columns(["id", "g"]), batch_format="pyarrow"),
        ["id", "g"],
    )

    def core_coalesce(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.combine_chunks()  # align chunks before pc.coalesce
        return pa.table({"id": b["id"], "g": pc.coalesce(b["g"], b["id"])})

    # isolated cores (no core neighbor) keep their own id; materialized
    # because BOTH the border path and the final union consume it
    # (core-scale reduced table, one row per core point)
    corelab = typed(
        hash_join(core_ids, labels, "id", how="left").map_batches(
            core_coalesce, batch_format="pyarrow"
        ),
        ["id", "g"],
    )

    def border_cand(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.combine_chunks()
        m = pc.and_(pc.invert(b["core_a"]), b["core_b"])
        b = b.filter(m)
        return pa.table({"ia": b["ia"], "ib": b["ib"]})

    bp = hash_join(
        typed(pairs.map_batches(border_cand, batch_format="pyarrow"), ["ia", "ib"]),
        typed(
            corelab.map_batches(lambda b: b.rename_columns(["ib", "g"]), batch_format="pyarrow"),
            ["ib", "g"],
        ),
        "ib",
        how="inner",
    )
    borderlab = grouped_count_sums(bp, "ia", min_cols=["g"]).map_batches(
        lambda b: pa.table({"id": b["ia"], "bg": b["min_g"]}), batch_format="pyarrow"
    )

    # sentinel-union verdict co-partition: deg (src 0) + core labels
    # (src 1) + border labels (src 2), merged per id in one pass
    u_schema = pa.schema(
        [
            ("id", pa.int64()),
            ("src", pa.int8()),
            ("x", pa.int64()),
            ("y", pa.int64()),
            ("is_core", pa.bool_()),
            ("g", pa.int64()),
        ]
    )

    def tag0(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "id": b["id"],
                "src": pa.array(np.zeros(n, dtype=np.int8)),
                "x": b["x"],
                "y": b["y"],
                "is_core": b["is_core"],
                "g": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def tag_lab(src: int, gcol: str):
        def fn(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "id": b["id"],
                    "src": pa.array(np.full(n, src, dtype=np.int8)),
                    "x": pa.array(np.zeros(n, dtype=np.int64)),
                    "y": pa.array(np.zeros(n, dtype=np.int64)),
                    "is_core": pa.array(np.zeros(n, dtype=bool)),
                    "g": b[gcol],
                }
            )

        return fn

    uni = (
        conform_blocks(deg.map_batches(tag0, batch_format="pyarrow"), u_schema)
        .union(
            conform_blocks(
                corelab.map_batches(tag_lab(1, "g"), batch_format="pyarrow"), u_schema
            ),
            conform_blocks(
                borderlab.map_batches(tag_lab(2, "bg"), batch_format="pyarrow"),
                u_schema,
            ),
        )
        .materialize()
    )

    def verdict(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id": pd.Series(dtype=np.int64),
                "x": pd.Series(dtype=np.int64),
                "y": pd.Series(dtype=np.int64),
                "is_core": pd.Series(dtype=bool),
                "cluster": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "src" not in df.columns:
            return empty
        src = df["src"].to_numpy()
        base = df[src == 0]
        if base.empty:
            return empty
        ids0 = base["id"].to_numpy()
        order = np.argsort(ids0, kind="stable")
        ids0 = ids0[order]
        x0 = base["x"].to_numpy()[order]
        y0 = base["y"].to_numpy()[order]
        core0 = base["is_core"].to_numpy()[order]
        cluster = np.full(ids0.size, -1, dtype=np.int64)
        for s, arr in ((1, cluster), (2, cluster)):
            part = df[src == s]
            if part.empty:
                continue
            pos = np.searchsorted(ids0, part["id"].to_numpy())
            arr[pos] = part["g"].to_numpy()
        return pd.DataFrame(
            {"id": ids0, "x": x0, "y": y0, "is_core": core0, "cluster": cluster}
        )

    out_schema = pa.schema(
        [
            ("id", pa.int64()),
            ("x", pa.int64()),
            ("y", pa.int64()),
            ("is_core", pa.bool_()),
            ("cluster", pa.int64()),
        ]
    )
    res = keyed_partition_map(uni, ["id"], verdict, num_partitions)
    return conform_blocks(res, out_schema)


def sql_dbscan_events(eps: int = EPS, min_pts: int = MIN_PTS) -> str:
    """DuckDB mirror: identical point derivation (shared constants),
    9-offset cell equi-join neighbor pairs, the proven recursive
    min-reachable-label CC (engine/queries._sql_graph_components
    shape), COALESCE border/noise verdicts."""
    eps2 = eps * eps
    return f"""
WITH RECURSIVE
nn AS (SELECT GREATEST(COUNT(*) // {CENT_DIV}, 1) AS ncent FROM events),
hh AS (SELECT event_id AS id,
              (event_id * {MIX1}) % {M31} AS h1,
              (event_id * {MIX2}) % {M31} AS h2
       FROM events),
pts AS (SELECT id,
  CASE WHEN h1 % {CLUSTER_MOD} < {CLUSTER_LT}
       THEN ((h1 // {CLUSTER_MOD}) % (SELECT ncent FROM nn) * {CAX} + {CBX}) % {CSPAN} + h2 % {BLOB}
       ELSE h2 % {WORLD} END AS x,
  CASE WHEN h1 % {CLUSTER_MOD} < {CLUSTER_LT}
       THEN ((h1 // {CLUSTER_MOD}) % (SELECT ncent FROM nn) * {CAY} + {CBY}) % {CSPAN} + (h2 // {BLOB}) % {BLOB}
       ELSE (h2 // {WORLD}) % {WORLD} END AS y
  FROM hh),
cells AS (SELECT id, x, y, x // {eps} AS cx, y // {eps} AS cy FROM pts),
nb AS (SELECT a.id AS ia, b.id AS ib
       FROM cells a
       JOIN (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),(1,-1),(1,0),(1,1)) o(dx, dy) ON TRUE
       JOIN cells b ON b.cx = a.cx + o.dx AND b.cy = a.cy + o.dy
       WHERE (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) <= {eps2}),
deg AS (SELECT ia AS id, COUNT(*) AS cnt FROM nb GROUP BY ia),
core AS (SELECT id FROM deg WHERE cnt >= {min_pts}),
ee AS (SELECT ia AS a, ib AS b FROM nb
       WHERE ia <> ib
         AND ia IN (SELECT id FROM core) AND ib IN (SELECT id FROM core)),
reach(id, r) AS (
  SELECT a, a FROM ee
  UNION
  SELECT reach.id, ee.b FROM reach JOIN ee ON reach.r = ee.a),
lab AS (SELECT id, MIN(r) AS g FROM reach GROUP BY id),
corelab AS (SELECT c.id, COALESCE(l.g, c.id) AS g
            FROM core c LEFT JOIN lab l USING (id)),
border AS (SELECT nb.ia AS id, MIN(cl.g) AS g
           FROM nb JOIN corelab cl ON nb.ib = cl.id
           WHERE nb.ia <> nb.ib
             AND nb.ia NOT IN (SELECT id FROM core)
           GROUP BY nb.ia)
SELECT p.id AS event_id, p.x, p.y,
       d.cnt >= {min_pts} AS is_core,
       CAST(COALESCE(cl.g, bo.g, -1) AS BIGINT) AS cluster
FROM pts p
JOIN deg d USING (id)
LEFT JOIN corelab cl USING (id)
LEFT JOIN border bo USING (id)
"""
