"""Multi-resolution tile-pyramid aggregation (X61).

The web-map tile-pyramid build: aggregate points once at the finest
zoom level, then derive every coarser level from the LEVEL BELOW —
each parent tile's stats are the exact integer sum of its four
children. This is the standard map-tile / heatmap-pyramid preparation
step (slippy-map z/x/y tiles) and the hierarchical counterpart of the
flagship's single-resolution ``cell_rollup``.

Tile rule (shared with the DuckDB mirror): coords in [0, 2^bits);
level ``l`` has 2^l x 2^l tiles; ``tile(l) = coord >> (bits - l)``.
Output rows: (level, tx, ty, cnt, wsum) for every non-empty tile of
every level in [0, finest] — all exact int64 (weights are integers,
sums associative, so the result is layout- and engine-independent).

Upstream parity: no analogue in GeoCoordinateConverter (single-point
CLI); brief-mandated tiling machinery (the hierarchical member of the
H3/S2 cell-assignment family — SURVEY §2.9 X-table).

Scale shape: ONE corpus-scale combiner rollup (grouped_count_sums —
partials per block, coarse-key merge) at the finest level; every
coarsening step runs on the REDUCED tile table (<= 4^l rows), never
on the corpus again. The coarsening loop is size-adaptive (the BPE
X52 precedent): a finest-level table of at most ``LOCAL_MAX_TILES`` rows
collects ONCE to the driver and iterates with numpy at C speed
(9 levels of Ray stage dispatch cost more than the whole reduced
computation); larger tables run the identical per-level
parent-key + combiner merge distributed. Both paths are pytest-equal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

FINEST = 8  # gate pyramid: levels 0..8 over 20-bit synthetic coords

#: Finest-level tile tables at or below this row count coarsen on the
#: driver; larger ones run the distributed per-level merge. Read at
#: call time, so tests can pin it.
LOCAL_MAX_TILES = 2_000_000


def _levels_local(
    tx: np.ndarray, ty: np.ndarray, cnt: np.ndarray, wsum: np.ndarray, finest: int
) -> pa.Table:
    """Coarsen the finest tile table level by level with sort +
    add.reduceat; exact integer sums."""
    out_lv = [np.full(tx.size, finest, dtype=np.int64)]
    out_tx, out_ty, out_c, out_w = [tx], [ty], [cnt], [wsum]
    for lv in range(finest - 1, -1, -1):
        tx = tx >> 1
        ty = ty >> 1
        key = (tx << np.int64(32)) | ty
        order = np.argsort(key, kind="stable")
        key, tx, ty = key[order], tx[order], ty[order]
        cnt, wsum = cnt[order], wsum[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        tx, ty = tx[starts], ty[starts]
        cnt = np.add.reduceat(cnt, starts)
        wsum = np.add.reduceat(wsum, starts)
        out_lv.append(np.full(tx.size, lv, dtype=np.int64))
        out_tx.append(tx)
        out_ty.append(ty)
        out_c.append(cnt)
        out_w.append(wsum)
    return pa.table(
        {
            "level": pa.array(np.concatenate(out_lv)),
            "tx": pa.array(np.concatenate(out_tx)),
            "ty": pa.array(np.concatenate(out_ty)),
            "cnt": pa.array(np.concatenate(out_c)),
            "wsum": pa.array(np.concatenate(out_w)),
        }
    )


def tile_pyramid(
    pts: Dataset,
    bits: int,
    finest: int,
    *,
    x_col: str = "x",
    y_col: str = "y",
    w_col: str = "w",
    num_partitions: int = 32,
) -> Dataset:
    """Non-empty (level, tx, ty, cnt, wsum) tiles for levels
    0..finest. See module docstring for semantics and scale shape."""
    from engine.shuffle import conform_blocks, grouped_count_sums

    shift = np.int64(bits - finest)

    def to_tiles(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = b[w_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"tx": pa.array(x >> shift), "ty": pa.array(y >> shift), "w": pa.array(w)}
        )

    base = grouped_count_sums(
        pts.map_batches(to_tiles, batch_format="pyarrow"),
        ["tx", "ty"],
        sum_cols=["w"],
        num_partitions=num_partitions,
    ).materialize()  # reduced tile-scale; consumed by the level loop

    out_schema = pa.schema(
        [
            ("level", pa.int64()),
            ("tx", pa.int64()),
            ("ty", pa.int64()),
            ("cnt", pa.int64()),
            ("wsum", pa.int64()),
        ]
    )

    n_base = base.count()
    if n_base <= LOCAL_MAX_TILES:
        t = base.to_arrow_refs()
        import ray

        tabs = [
            pa.Table.from_batches(x.to_batches(), schema=x.schema)
            for x in ray.get(t)
        ]
        tab = pa.concat_tables([x for x in tabs if x.num_rows], promote_options="none")
        res = _levels_local(
            tab["tx"].to_numpy(zero_copy_only=False).astype(np.int64),
            tab["ty"].to_numpy(zero_copy_only=False).astype(np.int64),
            tab["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
            tab["sum_w"].to_numpy(zero_copy_only=False).astype(np.int64),
            finest,
        )
        return rd.from_arrow(res)

    # distributed path: per-level parent-key combiner merge on the
    # reduced table (<= 4^l rows per level)
    def tag_level(lv: int):
        def fn(b: pa.Table) -> pa.Table:
            n = b.num_rows
            names = b.schema.names
            # parent levels carry BOTH "cnt" (count of child tiles —
            # wrong) and "sum_cnt" (the exact child-count sum — right);
            # only the finest level's rollup has "cnt" as the true count
            csum = "sum_cnt" if "sum_cnt" in names else "cnt"
            wsum = "sum_wsum" if "sum_wsum" in names else "sum_w"
            return pa.table(
                {
                    "level": pa.array(np.full(n, lv, dtype=np.int64)),
                    "tx": b["tx"],
                    "ty": b["ty"],
                    "cnt": b[csum],
                    "wsum": b[wsum],
                }
            )

        return fn

    levels = [
        conform_blocks(
            base.map_batches(tag_level(finest), batch_format="pyarrow"), out_schema
        )
    ]
    cur = levels[0]
    for lv in range(finest - 1, -1, -1):

        def halve(b: pa.Table) -> pa.Table:
            tx = b["tx"].to_numpy(zero_copy_only=False).astype(np.int64) >> 1
            ty = b["ty"].to_numpy(zero_copy_only=False).astype(np.int64) >> 1
            return pa.table(
                {
                    "tx": pa.array(tx),
                    "ty": pa.array(ty),
                    "cnt": b["cnt"],
                    "wsum": b["wsum"],
                }
            )

        parent = grouped_count_sums(
            cur.map_batches(halve, batch_format="pyarrow"),
            ["tx", "ty"],
            sum_cols=["cnt", "wsum"],
            num_partitions=min(num_partitions, max(1, 4**lv // 64)),
        ).materialize()
        cur = conform_blocks(
            parent.map_batches(tag_level(lv), batch_format="pyarrow"), out_schema
        )
        levels.append(cur)
    return levels[0].union(*levels[1:])


def tile_pyramid_events(ds_events: Dataset, finest: int = FINEST) -> Dataset:
    """Gate pipeline: deterministic 20-bit grid coords from event ids
    (the zorder X59 synthetic-grid constants), floor-cent integer
    weights, full tile pyramid levels 0..finest. Columns
    (level, tx, ty, cnt, wsum) — the SQL mirror re-aggregates each
    level independently from the same base GROUP BY."""
    from engine.zorder import GRID_BITS, synth_grid_coords

    def coords(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ix, iy = synth_grid_coords(ids)
        w = np.floor(
            b["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"x": pa.array(ix), "y": pa.array(iy), "w": pa.array(w)})

    pts = ds_events.map_batches(coords, batch_format="pyarrow")
    return tile_pyramid(pts, GRID_BITS, finest)


def sql_tile_pyramid_events(bits: int = 20, finest: int = FINEST) -> str:
    """DuckDB mirror over the events table: the zorder gate's shared
    synthetic grid coords (engine/zorder constants), floor-cent
    weights, one base GROUP BY + per-level exact re-aggregation."""
    from engine.zorder import GRID_BITS, IX_MULT, IX_ADD, IY_MULT, IY_ADD

    assert bits == GRID_BITS
    side = 1 << GRID_BITS
    shift = bits - finest
    sels = [
        f"SELECT {finest} AS level, tx, ty, c AS cnt, s AS wsum FROM base"
    ]
    for lv in range(finest - 1, -1, -1):
        sh = finest - lv
        sels.append(
            f"SELECT {lv} AS level, tx >> {sh} AS tx, ty >> {sh} AS ty, "
            f"CAST(SUM(c) AS BIGINT) AS cnt, CAST(SUM(s) AS BIGINT) AS wsum "
            f"FROM base GROUP BY tx >> {sh}, ty >> {sh}"
        )
    union = "\nUNION ALL\n".join(sels)
    return f"""
WITH pts AS (
  SELECT ((event_id * {IX_MULT} + {IX_ADD}) % {side}) >> {shift} AS tx,
         ((event_id * {IY_MULT} + {IY_ADD}) % {side}) >> {shift} AS ty,
         CAST(floor(value * 100) AS BIGINT) AS w
  FROM events),
base AS (
  SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS c, CAST(SUM(w) AS BIGINT) AS s
  FROM pts GROUP BY tx, ty)
{union}
"""
