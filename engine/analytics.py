"""Analytics operators beyond the upstream checklist (SURVEY.md §2.9):
grouping-sets/ROLLUP aggregates in one combiner pass, hopping
(overlapping sliding) window aggregates, exact distributed grouped
quantiles over a column-pruned shuffle, and a flag-producing
semi/anti join. Each is driver-gated with a DuckDB value oracle.

Scale notes live on each operator; the shared principles:
- aggregation is always per-batch partial -> one partials-only shuffle
  (engine.shuffle.grouped_count_sums) — rows never move for a rollup;
- window replication is vectorized (np.repeat) and multiplies only the
  pruned (ts, key, value) projection, never the full row;
- the quantile shuffle carries (group, int64 value) only — 16 B/row —
  and per-group exactness is the documented memory contract (a group's
  values must fit one worker; use a sketch when they cannot);
- the semi/anti flag join is size-adaptive like engine.dedupe's
  candidate filter: broadcast key set under a threshold, bucketed
  hash-join above it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from engine.joins import lookup
from engine.shuffle import grouped_count_sums, keyed_partition_map

# ------------------------------------------------------------------ rollup

# Sentinel standing in for "all values" in rolled-up key columns while
# partials move through the (null-averse) combiner shuffle; surfaced as
# the literal 'ALL' on both the Ray and SQL sides (key domains here are
# single-letter flags, so no collision; the `lvl` column disambiguates
# regardless: lvl = 2*GROUPING(k1) + GROUPING(k2)).
_ALL = "ALL"


def rollup_aggregate(
    ds: Dataset, keys: list[str], sum_col: str, num_partitions: int = 64
) -> Dataset:
    """GROUP BY ROLLUP(keys) in ONE pass and ONE partials shuffle.

    Each input batch is expanded to len(keys)+1 grouping sets (the
    rolled-up key columns replaced by the ALL sentinel and tagged with
    `lvl`) BEFORE the per-batch combiner runs, so the shuffle moves
    one partial row per (grouping set x key tuple x batch) — the
    expansion multiplies partials, not rows. At 100 TB this is
    len(keys)+1 combiner outputs per batch versus len(keys)+1 full
    aggregation passes for the naive plan.
    """
    levels = len(keys) + 1

    def expand(b: pa.Table) -> pa.Table:
        cols = {c: b[c] for c in b.column_names}
        n = b.num_rows
        parts = []
        for lvl in range(levels):
            # lvl = number of trailing keys rolled up (ROLLUP order).
            rolled = keys[len(keys) - lvl :]
            arrs = []
            names = []
            for c in b.column_names:
                if c in rolled:
                    arrs.append(pa.array(np.full(n, _ALL), type=pa.string()))
                else:
                    arrs.append(cols[c])
                names.append(c)
            arrs.append(pa.array(np.full(n, lvl, dtype=np.int64)))
            names.append("lvl")
            parts.append(pa.table(dict(zip(names, arrs))))
        return pa.concat_tables(parts)

    expanded = ds.map_batches(expand, batch_format="pyarrow")
    return grouped_count_sums(
        expanded,
        keys + ["lvl"],
        sum_cols=[sum_col],
        num_partitions=num_partitions,
    )


def q_rollup_lineitem(sf_dir: str) -> Dataset:
    """ROLLUP(l_returnflag, l_linestatus) over lineitem: count + exact
    cents sum at every grouping level, one combiner pass."""
    from engine.queries import _read

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        qty = pc.cast(
            pc.round(pc.multiply(b["l_quantity"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_cents": qty,
            }
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = rollup_aggregate(ds, ["l_returnflag", "l_linestatus"], "qty_cents")

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["l_returnflag", "l_linestatus", "lvl", "cnt", "sum_qty_cents"]
        ).select(["l_returnflag", "l_linestatus", "lvl", "cnt", "sum_qty_cents"])

    return out.map_batches(rename, batch_format="pyarrow")


SQL_ROLLUP_LINEITEM = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(GROUPING(l_returnflag) + GROUPING(l_linestatus) AS BIGINT) AS lvl,
       COUNT(*) AS cnt,
       CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_cents
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


# ---------------------------------------------------------- hopping window

HOP_S = 7200  # 2 h hop
WIN_HOPS = 3  # 6 h window = 3 hops


def hopping_window_aggregate(
    ds: Dataset,
    ts_col: str,
    key_col: str,
    value_cents_col: str,
    hop_s: int = HOP_S,
    win_hops: int = WIN_HOPS,
    num_partitions: int = 64,
) -> Dataset:
    """Overlapping (hopping) window aggregate: every event belongs to
    ``win_hops`` windows of length ``hop_s * win_hops`` starting every
    ``hop_s`` seconds; count + exact sum per (window start, key).

    The replication happens INSIDE map_batches on the pruned
    (ts, key, value) projection — np.repeat/np.tile, no Python rows —
    and feeds the standard combiner shuffle, so the shuffle still
    moves per-batch partials only. Replication factor is win_hops (a
    constant), independent of data size; memory per batch is bounded
    by win_hops x the pruned batch width.
    """
    hop_us = np.int64(hop_s) * 1_000_000

    def replicate(b: pa.Table) -> pa.Table:
        n = b.num_rows
        epoch = pc.cast(b[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        base = np.floor_divide(epoch, hop_us)
        offs = np.arange(win_hops, dtype=np.int64)
        w_idx = np.repeat(base, win_hops) - np.tile(offs, n)
        rep_idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), win_hops))
        keys = b[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        vals = b[value_cents_col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        return pa.table(
            {
                "w_start": pa.array(w_idx * np.int64(hop_s)),
                key_col: keys.take(rep_idx),
                value_cents_col: vals.take(rep_idx),
            }
        )

    rep = ds.map_batches(replicate, batch_format="pyarrow")
    return grouped_count_sums(
        rep, ["w_start", key_col], sum_cols=[value_cents_col],
        num_partitions=num_partitions,
    )


def q_hopping_window(sf_dir: str) -> Dataset:
    """6-hour windows hopping every 2 hours over events, per
    event_type: n events + exact milli-sum of value."""
    from engine.queries import _read

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        milli = pc.cast(
            pc.round(pc.multiply(b["value"], 1000.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {"ts": b["ts"], "event_type": b["event_type"], "value_milli": milli}
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = hopping_window_aggregate(ds, "ts", "event_type", "value_milli")

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["w_start", "event_type", "n_events", "sum_value_milli"]
        ).select(["w_start", "event_type", "n_events", "sum_value_milli"])

    return out.map_batches(rename, batch_format="pyarrow")


SQL_HOPPING_WINDOW = f"""
SELECT (epoch_us(ts) // {HOP_S * 1_000_000} - i) * {HOP_S} AS w_start,
       event_type,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli
FROM events
CROSS JOIN range({WIN_HOPS}) t(i)
GROUP BY w_start, event_type
"""


# ------------------------------------------------------- grouped quantiles

QUANTILES = (0.5, 0.9, 0.99)


def grouped_quantiles(
    ds: Dataset,
    key: str,
    value_col: str,
    quantiles=QUANTILES,
    num_partitions: int = 16,
) -> Dataset:
    """Exact discrete quantiles (percentile_disc semantics: smallest
    value with cumulative frequency >= q, i.e. sorted[ceil(q*n)-1])
    per group.

    The shuffle carries ONLY (key, int64 value) — the projection
    happens before this call — so at 100 TB the exchange is ~16 B/row
    regardless of row width. Memory contract: all values of one GROUP
    must fit a worker (np.sort per group); exact distributed quantiles
    cannot do better without a value-domain histogram. For groups that
    cannot fit, swap in the mergeable t-digest
    (engine.tdigest.grouped_quantile_sketch — same keyed-shuffle
    plumbing, O(delta) centroids per group instead of all values).
    """
    qcols = [f"p{int(q * 100)}_{value_col}" for q in quantiles]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(key, sort=False):
            v = np.sort(g[value_col].to_numpy())
            n = len(v)
            idx = [min(n - 1, int(np.ceil(q * n)) - 1) for q in quantiles]
            rows.append((k, *[v[i] for i in idx]))
        return pd.DataFrame(rows, columns=[key, *qcols]).astype(
            {c: np.int64 for c in qcols}
        )

    s = ds.schema()
    key_type = dict(zip(s.names, s.types))[key]
    schema = pa.schema([(key, key_type)] + [(c, pa.int64()) for c in qcols])
    return keyed_partition_map(
        ds, [key], per_partition, num_partitions, out_schema=schema
    )


def q_grouped_quantiles(sf_dir: str) -> Dataset:
    """Exact p50/p90/p99 of o_totalprice (cents) per o_orderpriority."""
    from engine.queries import _read

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(b["o_totalprice"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({"o_orderpriority": b["o_orderpriority"], "cents": cents})

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return grouped_quantiles(ds, "o_orderpriority", "cents")


SQL_GROUPED_QUANTILES = """
WITH c AS (
  SELECT o_orderpriority, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
)
SELECT o_orderpriority,
       quantile_disc(cents, 0.5)  AS p50_cents,
       quantile_disc(cents, 0.9)  AS p90_cents,
       quantile_disc(cents, 0.99) AS p99_cents
FROM c
GROUP BY o_orderpriority
"""


# ------------------------------------------------ winsorized aggregates


def winsorized_stats(
    ds: Dataset,
    key: str,
    value_col: str,
    lo_q: float = 0.05,
    hi_q: float = 0.95,
    num_partitions: int = 16,
) -> Dataset:
    """Outlier-robust grouped aggregates: clamp each group's values to
    its [lo_q, hi_q] EXACT discrete quantiles (the grouped_quantiles
    rank rule, sorted[ceil(q*n)-1] == DuckDB quantile_disc — order
    statistics, no interpolated floats) and report the clamped sum.
    All outputs are exact int64, so the SQL mirror is bitwise.

    Same scale contract as grouped_quantiles: the shuffle carries only
    the (key, int64 value) projection (~16 B/row); one group's values
    must fit a worker (swap in the t-digest sketch when they cannot).

    Output: ``key, n, lo_<v>, hi_<v>, wsum_<v>``.
    """
    lo_c, hi_c, ws_c = f"lo_{value_col}", f"hi_{value_col}", f"wsum_{value_col}"

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(key, sort=False):
            v = np.sort(g[value_col].to_numpy())
            n = len(v)
            lo = v[max(0, int(np.ceil(lo_q * n)) - 1)]
            hi = v[max(0, int(np.ceil(hi_q * n)) - 1)]
            rows.append((k, n, lo, hi, int(np.clip(v, lo, hi).sum())))
        return pd.DataFrame(
            rows, columns=[key, "n", lo_c, hi_c, ws_c]
        ).astype({c: np.int64 for c in ("n", lo_c, hi_c, ws_c)})

    s = ds.schema()
    key_type = dict(zip(s.names, s.types))[key]
    schema = pa.schema(
        [(key, key_type)] + [(c, pa.int64()) for c in ("n", lo_c, hi_c, ws_c)]
    )
    return keyed_partition_map(
        ds, [key], per_partition, num_partitions, out_schema=schema
    )


def q_winsorized_events(sf_dir: str) -> Dataset:
    """Winsorized (5%/95%-clamped) sum of event value (milli-units)
    per event_type — the robust-stats view of a heavy-tailed metric."""
    from engine.queries import _read

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        milli = pc.cast(
            pc.round(pc.multiply(b["value"], 1000.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({"event_type": b["event_type"], "milli": milli})

    return winsorized_stats(
        ds.map_batches(prep, batch_format="pyarrow"), "event_type", "milli"
    )


SQL_WINSORIZED_EVENTS = """
WITH c AS (
  SELECT event_type, CAST(ROUND(value * 1000) AS BIGINT) AS milli FROM events
),
b AS (
  SELECT event_type,
         CAST(COUNT(*) AS BIGINT) AS n,
         quantile_disc(milli, 0.05) AS lo_milli,
         quantile_disc(milli, 0.95) AS hi_milli
  FROM c GROUP BY event_type
)
SELECT b.event_type, b.n, b.lo_milli, b.hi_milli,
       CAST(SUM(CASE WHEN c.milli < b.lo_milli THEN b.lo_milli
                     WHEN c.milli > b.hi_milli THEN b.hi_milli
                     ELSE c.milli END) AS BIGINT) AS wsum_milli
FROM c JOIN b USING (event_type)
GROUP BY b.event_type, b.n, b.lo_milli, b.hi_milli
"""


# --------------------------------------------------------- semi/anti flag


def flag_join(
    left: Dataset,
    right_keys: Dataset,
    key: str,
    right_key: str,
    flag_name: str,
    broadcast_max: int | None = None,
) -> Dataset:
    """Attach a boolean ``flag_name`` to ``left``: does the row's
    ``key`` appear in ``right_keys[right_key]``?  Semi join = filter
    flag true; anti join = filter flag false; this keeps both in one
    pass so callers needing the partition (e.g. routing matched vs
    unmatched rows differently) read the flag instead of running two
    joins. ``broadcast_max`` caps the distinct right keys that are
    broadcast (default ``engine.joins.BROADCAST_MAX_KEYS``); above it
    the flag comes from a bucketed hash join."""
    return lookup(
        left, right_keys, key, build_key=right_key, how="flag",
        flag_name=flag_name, max_broadcast=broadcast_max,
    )


SEMI_ANTI_CUTOFF = "2001-06-01"


def q_semi_anti(sf_dir: str) -> Dataset:
    """Orders flagged by whether any of their lineitems shipped after
    the cutoff (late-tail semi/anti partition in one pass)."""
    from engine.queries import _read

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def late(b: pa.Table) -> pa.Table:
        keep = pc.greater(b["l_shipdate"], pa.scalar(pd.Timestamp(SEMI_ANTI_CUTOFF)))
        return b.filter(keep).select(["l_orderkey"])

    late_keys = li.map_batches(late, batch_format="pyarrow")
    out = flag_join(orders, late_keys, "o_orderkey", "l_orderkey", "has_late")
    return out.map_batches(
        lambda b: b.select(["o_orderkey", "o_orderpriority", "has_late"]),
        batch_format="pyarrow",
    )


SQL_SEMI_ANTI = f"""
SELECT o.o_orderkey, o.o_orderpriority,
       (k.l_orderkey IS NOT NULL) AS has_late
FROM orders o
LEFT JOIN (
  SELECT DISTINCT l_orderkey FROM lineitem
  WHERE l_shipdate > TIMESTAMP '{SEMI_ANTI_CUTOFF}'
) k ON o.o_orderkey = k.l_orderkey
"""


# ------------------------------------------------------------------ pivot


def pivot_aggregate(
    ds: Dataset,
    row_key: str,
    col_key: str,
    value: str,
    col_values: list[str],
    num_partitions: int = 32,
) -> Dataset:
    """Pivot / crosstab aggregate: count + exact sum of ``value`` per
    (row_key, col_key) cell, reshaped wide as ``cnt_{v}`` /
    ``sum_{v}`` per declared column value.

    Shape: ONE combiner pass over the data (grouped_count_sums — the
    shuffle moves (row, col, partials) rows, never input rows), then a
    second keyed partition over the GROUP-COUNT-sized narrow result to
    scatter each row's cells into wide columns — metadata-scale, so
    the pivot adds no data-scale movement at 100 TB.

    ``col_values`` must be DECLARED by the caller (the schema-
    stability contract: every block must emit the same wide columns;
    discovering the domain would need its own distinct pre-pass).
    An undeclared col_key value in the data raises rather than being
    silently dropped; absent (row, col) cells emit 0 — matching
    SQL's SUM(CASE WHEN .. THEN .. ELSE 0 END)."""
    narrow = grouped_count_sums(
        ds, key=[row_key, col_key], sum_cols=[value], num_partitions=num_partitions
    )
    sum_col = f"sum_{value}"
    kt = pa.string()

    def pivot_partition(df: pd.DataFrame) -> pd.DataFrame:
        unknown = set(df[col_key]) - set(col_values)
        if unknown:
            raise ValueError(f"undeclared {col_key} values: {sorted(unknown)}")
        cnt = df.pivot(index=row_key, columns=col_key, values="cnt")
        sm = df.pivot(index=row_key, columns=col_key, values=sum_col)
        out = pd.DataFrame({row_key: cnt.index})
        for v in col_values:
            out[f"cnt_{v}"] = (
                cnt[v].fillna(0).astype(np.int64).to_numpy()
                if v in cnt.columns
                else np.zeros(len(cnt), dtype=np.int64)
            )
            out[f"sum_{v}"] = (
                sm[v].fillna(0).astype(np.int64).to_numpy()
                if v in sm.columns
                else np.zeros(len(cnt), dtype=np.int64)
            )
        return out

    fields = [(row_key, kt)]
    for v in col_values:
        fields += [(f"cnt_{v}", pa.int64()), (f"sum_{v}", pa.int64())]
    return keyed_partition_map(
        narrow,
        [row_key],
        pivot_partition,
        num_partitions=8,
        out_schema=pa.schema(fields),
    )


ORDERSTATUS_VALUES = ["F", "O", "P"]


def q_pivot_orders(sf_dir: str) -> Dataset:
    """Orders crosstab: per o_orderpriority row, count + exact cents
    sum of o_totalprice pivoted across the three o_orderstatus
    columns."""
    from engine.queries import _read

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(b["o_totalprice"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "o_orderstatus": b["o_orderstatus"],
                "price_cents": cents,
            }
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = pivot_aggregate(
        ds, "o_orderpriority", "o_orderstatus", "price_cents", ORDERSTATUS_VALUES
    )

    def rename(b: pa.Table) -> pa.Table:
        names = ["o_orderpriority"]
        for v in ORDERSTATUS_VALUES:
            names += [f"cnt_{v}", f"sum_{v}"]
        return b.select(names)

    return out.map_batches(rename, batch_format="pyarrow")


def _sql_pivot_orders() -> str:
    cells = ",\n".join(
        f"       CAST(SUM(CASE WHEN o_orderstatus = '{v}' THEN 1 ELSE 0 END) AS BIGINT) AS cnt_{v},\n"
        f"       CAST(SUM(CASE WHEN o_orderstatus = '{v}' THEN CAST(ROUND(o_totalprice * 100) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_{v}"
        for v in ORDERSTATUS_VALUES
    )
    return f"""
SELECT o_orderpriority,
{cells}
FROM orders GROUP BY o_orderpriority
"""


SQL_PIVOT_ORDERS = _sql_pivot_orders()


# ------------------------------------------------------------- moments


def moment_stats(
    ds: Dataset, key: str, x: str, y: str, num_partitions: int = 32
) -> Dataset:
    """Per-group moment statistics (mean / population variance /
    Pearson correlation) in ONE combiner pass: the five power sums
    (Σx, Σy, Σx², Σy², Σxy) accumulate as EXACT int64 per batch and
    shuffle as partials (grouped_count_sums), so engine summation
    order cannot perturb them; the float mean/var/corr are computed
    ONCE per output group from the same integers in a fixed operation
    order, giving bitwise-identical float64 on any engine that mirrors
    the formula (the driver's DuckDB oracle does).

    ``x``/``y`` must already be int64-scaled by the caller (the cents
    policy). Exactness contract: max|x|² × rows-per-group must stay
    below 2^63 — at wider scales, widen the moment accumulators (the
    combiner shape is unchanged).

    Output: key, cnt, sum_x, sum_y, sum_xx, sum_yy, sum_xy, mean_x,
    var_x, corr_xy."""

    def prods(b: pa.Table) -> pa.Table:
        xv = b[x].to_numpy(zero_copy_only=False).astype(np.int64)
        yv = b[y].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                key: b[key],
                "x": xv,
                "y": yv,
                "xx": xv * xv,
                "yy": yv * yv,
                "xy": xv * yv,
            }
        )

    narrow = grouped_count_sums(
        ds.map_batches(prods, batch_format="pyarrow"),
        key=key,
        sum_cols=["x", "y", "xx", "yy", "xy"],
        num_partitions=num_partitions,
    )

    def finish(b: pa.Table) -> pa.Table:
        cnt = b["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b["sum_x"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b["sum_y"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b["sum_xx"].to_numpy(zero_copy_only=False).astype(np.float64)
        syy = b["sum_yy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b["sum_xy"].to_numpy(zero_copy_only=False).astype(np.float64)
        # Operation ORDER is the contract (mirrored term-for-term in
        # the SQL oracle) — do not "simplify".
        mean_x = sx / cnt
        var_x = (sxx - sx * sx / cnt) / cnt
        num = cnt * sxy - sx * sy
        den = np.sqrt((cnt * sxx - sx * sx) * (cnt * syy - sy * sy))
        corr = num / den
        return pa.table(
            {
                key: b[key],
                "cnt": b["cnt"],
                "sum_x": b["sum_x"],
                "sum_y": b["sum_y"],
                "sum_xx": b["sum_xx"],
                "sum_yy": b["sum_yy"],
                "sum_xy": b["sum_xy"],
                "mean_x": pa.array(mean_x),
                "var_x": pa.array(var_x),
                "corr_xy": pa.array(corr),
            }
        )

    # grouped_count_sums already names the outputs key, cnt,
    # sum_x/sum_y/sum_xx/sum_yy/sum_xy (from the product column names).
    return narrow.map_batches(finish, batch_format="pyarrow")


def q_moment_stats(sf_dir: str) -> Dataset:
    """Per-event-type moments of (value cents, JSON props.k): exact
    integer power sums through the shuffle, mean/var/corr computed
    once per group."""
    from engine.queries import _read
    from engine.textops import json_field_int

    ds = _read(sf_dir, "events", ["event_type", "value", "props"])

    def prep(b: pa.Table) -> pa.Table:
        xc = pc.cast(
            pc.round(pc.multiply(b["value"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {
                "event_type": b["event_type"],
                "xc": xc,
                "k": json_field_int(b["props"], "k"),
            }
        )

    return moment_stats(
        ds.map_batches(prep, batch_format="pyarrow"), "event_type", "xc", "k"
    )


SQL_MOMENT_STATS = """
WITH base AS (
  SELECT event_type,
         CAST(ROUND(value * 100) AS BIGINT) AS x,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS y
  FROM events),
m AS (
  SELECT event_type,
         CAST(COUNT(*) AS BIGINT) AS cnt,
         CAST(SUM(x) AS BIGINT) AS sum_x,
         CAST(SUM(y) AS BIGINT) AS sum_y,
         CAST(SUM(x * x) AS BIGINT) AS sum_xx,
         CAST(SUM(y * y) AS BIGINT) AS sum_yy,
         CAST(SUM(x * y) AS BIGINT) AS sum_xy
  FROM base GROUP BY event_type)
SELECT event_type, cnt, sum_x, sum_y, sum_xx, sum_yy, sum_xy,
       CAST(sum_x AS DOUBLE) / CAST(cnt AS DOUBLE) AS mean_x,
       (CAST(sum_xx AS DOUBLE)
          - CAST(sum_x AS DOUBLE) * CAST(sum_x AS DOUBLE) / CAST(cnt AS DOUBLE))
         / CAST(cnt AS DOUBLE) AS var_x,
       (CAST(cnt AS DOUBLE) * CAST(sum_xy AS DOUBLE)
          - CAST(sum_x AS DOUBLE) * CAST(sum_y AS DOUBLE))
         / SQRT((CAST(cnt AS DOUBLE) * CAST(sum_xx AS DOUBLE)
                   - CAST(sum_x AS DOUBLE) * CAST(sum_x AS DOUBLE))
                * (CAST(cnt AS DOUBLE) * CAST(sum_yy AS DOUBLE)
                   - CAST(sum_y AS DOUBLE) * CAST(sum_y AS DOUBLE))) AS corr_xy
FROM m
"""


# ------------------------------------------------- stratified sampling


def stratified_sample(
    ds: Dataset,
    group_col: str,
    rates_milli: dict[str, int],
    hash_col: str,
    default_milli: int = 0,
    copy_col: str = "copy_i",
) -> Dataset:
    """Weighted per-group sampler — the domain-mixing primitive of a
    training-data pipeline (sample each source/language/quality bucket
    at its own configured rate when composing a corpus mix).

    ``rates_milli[group]`` is the sampling rate in milli-fractions and
    may EXCEED 1000: a row yields ``rate // 1000`` guaranteed copies
    plus one more iff ``hash < rate % 1000`` — i.e. rates above 1000
    UPSAMPLE by epoch replication (2500 = every row 2-3x), the standard
    data-mixing treatment of high-value domains. Groups absent from the
    dict get ``default_milli``. Emitted copies carry ``copy_col``
    (0..n-1) so downstream shuffles/splits can distinguish them and the
    output stays value-deterministic.

    ``hash_col`` must be an int64 column in [0, 1000) computed by the
    caller from stable row identity (e.g. ``(id * 2654435761) % 1000``,
    the hash_sample kernel) — NOT from position or RNG. That makes the
    sample reproducible across runs, repartitionings and engines (the
    SQL oracle mirrors the same arithmetic), and resumable jobs keep
    their sampling decisions.

    Shape: ZERO shuffles — pure per-block filter/replicate fused into
    the scan; replication is one ``Table.take`` gather per block.
    Per-group rate lookup is dictionary-encoded (one dict probe per
    DISTINCT group value per block, not per row)."""

    if default_milli < 0 or any(v < 0 for v in rates_milli.values()):
        raise ValueError("sampling rates must be >= 0 milli")

    def fn(b: pa.Table) -> pa.Table:
        g = b[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        if g.null_count:
            # null groups take default_milli (a null dictionary index
            # would otherwise NaN out the rate gather below)
            import pyarrow.compute as pc

            g = pc.fill_null(g, "\x00__null_group__")
        enc = g.dictionary_encode()
        uniq_rates = np.array(
            [rates_milli.get(v, default_milli) for v in enc.dictionary.to_pylist()],
            dtype=np.int64,
        )
        idxs = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rate = uniq_rates[idxs]
        h = b[hash_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = rate // 1000 + (h < rate % 1000)
        take = np.repeat(np.arange(len(n), dtype=np.int64), n)
        starts = np.concatenate([[0], np.cumsum(n)[:-1]])
        copy_i = np.arange(len(take), dtype=np.int64) - np.repeat(starts, n)
        out = b.take(pa.array(take))
        return out.append_column(copy_col, pa.array(copy_i))

    return ds.map_batches(fn, batch_format="pyarrow")


# Per-source mixing rates for the gate query: upsampled, kept-whole,
# fractional, near-zero and dropped domains all exercised.
MIX_RATES_MILLI: dict[str, int] = {
    "src0": 2500,
    "src1": 1700,
    "src2": 1000,
    "src3": 800,
    "src4": 500,
    "src5": 300,
    "src6": 200,
    "src7": 100,
    "src8": 50,
    "src9": 0,
}


def q_stratified_sample(sf_dir: str) -> Dataset:
    """Domain-mixing sample of documents by source (X19): per-source
    milli rates incl. >1000 upsampling; row hash is the hash_sample
    kernel on doc_id so the decision is reproducible and SQL-exact."""
    from engine.queries import _read

    ds = _read(sf_dir, "documents", ["doc_id", "source"], rows_per_block=256)

    def add_hash(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("h", pa.array((d * 2654435761) % 1000))

    ds = ds.map_batches(add_hash, batch_format="pyarrow")
    ds = stratified_sample(ds, "source", MIX_RATES_MILLI, "h")
    return ds.map_batches(
        lambda b: b.select(["doc_id", "source", "copy_i"]), batch_format="pyarrow"
    )


def _sql_stratified_sample() -> str:
    cases = " ".join(
        f"WHEN '{k}' THEN {v}" for k, v in sorted(MIX_RATES_MILLI.items())
    )
    return f"""
WITH r AS (
  SELECT doc_id, source,
         CASE source {cases} ELSE 0 END AS rate,
         (doc_id * 2654435761) % 1000 AS h
  FROM documents),
c AS (
  SELECT doc_id, source,
         rate // 1000 + CASE WHEN h < rate % 1000 THEN 1 ELSE 0 END AS n
  FROM r)
SELECT doc_id, source, CAST(copy_i AS BIGINT) AS copy_i
FROM c, LATERAL unnest(range(0, n)) AS t(copy_i)
"""


SQL_STRATIFIED_SAMPLE = _sql_stratified_sample()


# -------------------------------------------------- sequence packing


def pack_shards(
    ds: Dataset,
    order_col: str,
    tok_col: str,
    budget: int,
    num_partitions: int = 32,
    id_range: tuple[int, int] | None = None,
    extra_cols: list[tuple[str, pa.DataType]] | None = None,
) -> Dataset:
    """Sequence packing / shard assignment (X21): the GPT-style
    "concatenate in order, cut every ``budget`` tokens" rule at
    document granularity — doc d goes to ``shard_id = prev // budget``
    where ``prev`` is the total token count of every doc BEFORE it in
    ``order_col`` order (docs may straddle a cut; that is this rule's
    documented approximation). Adds ``shard_id`` and
    ``offset_in_shard`` (= prev % budget).

    This is a distributed GLOBAL prefix sum, two passes, no row-scale
    shuffle:
    1. docs partition by CONTIGUOUS ``order_col`` ranges
       (``(v - lo) // width``); a per-batch combiner ships one
       (range, partial_sum) row per range per block — the driver
       prefix-sums ``num_partitions`` scalars into per-range bases;
    2. one coarse keyed partition map co-locates each range, sorts it
       by ``order_col`` locally, cumsums, and adds the broadcast base.
       The shuffle payload is (order, n_tok, range) ≈ 24 B/row — never
       text (callers count tokens upstream and prune the projection).

    ``id_range=(lo, hi)``: pass the known order-column bounds (e.g.
    from parquet column stats) to skip the min/max aggregate passes.
    Total-order contract: ``order_col`` values must be unique ints.

    The input is MATERIALIZED once up front: pack_shards consumes it
    two-to-three times (bounds aggregate, range partials, tag+shuffle),
    and a lazy upstream (e.g. the tokenize-and-count map feeding
    ``q_pack_shards``) would otherwise re-execute its expensive per-row
    work per pass. Callers must pass the PRUNED (order, n_tok)
    projection — ~16 B/row, object-store-resident and spillable — not
    the full table."""
    from engine.shuffle import keyed_partition_map

    ds = ds.materialize()
    if id_range is None:
        from ray.data.aggregate import Max, Min

        mm = ds.aggregate(Min(order_col), Max(order_col))  # one pass
        lo, hi = mm[f"min({order_col})"], mm[f"max({order_col})"]
    else:
        lo, hi = id_range
    width = max(1, -(-(hi - lo + 1) // num_partitions))

    def partials(b: pa.Table) -> pa.Table:
        v = b[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b[tok_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rng = (v - lo) // width
        # A wrong caller-supplied id_range must fail loudly: a negative
        # range index would otherwise WRAP into np.add.at and silently
        # mis-assign every downstream shard.
        if len(rng) and (rng.min() < 0 or rng.max() >= num_partitions):
            raise ValueError(
                f"{order_col} values outside id_range [{lo}, {hi}]"
            )
        # int64-exact accumulation (bincount's float weights would cap
        # exactness at 2^53); zero-sum ranges need no base entry
        sums = np.zeros(num_partitions, dtype=np.int64)
        np.add.at(sums, rng, t)
        nz = np.flatnonzero(sums)
        return pa.table({"rng": pa.array(nz), "s": pa.array(sums[nz])})

    pp = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    per_rng = pp.groupby("rng")["s"].sum().sort_index()
    bases = np.zeros(num_partitions + 1, dtype=np.int64)
    np.add.at(bases, per_rng.index.to_numpy().astype(np.int64) + 1,
              per_rng.to_numpy())
    bases = np.cumsum(bases)  # bases[r] = tokens in all ranges < r

    def tag(b: pa.Table) -> pa.Table:
        v = b[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("_rng", pa.array((v - lo) // width))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def pack(df):
        df = df.sort_values(order_col, kind="stable")
        t = df[tok_col].to_numpy().astype(np.int64)
        rng = df["_rng"].to_numpy().astype(np.int64)
        cv = np.cumsum(t)
        # exclusive prefix within each contiguous range run (rng is
        # sorted because ranges are contiguous in order_col)
        starts = np.flatnonzero(np.concatenate([[True], rng[1:] != rng[:-1]]))
        runlen = np.diff(np.append(starts, len(rng)))
        seg_base = np.repeat(cv[starts] - t[starts], runlen)
        prev = bases[rng] + (cv - t - seg_base)
        out = df.drop(columns=["_rng"]).copy()
        out["shard_id"] = prev // budget
        out["offset_in_shard"] = prev % budget
        return out

    schema_fields = [
        (order_col, pa.int64()),
        (tok_col, pa.int64()),
        ("shard_id", pa.int64()),
        ("offset_in_shard", pa.int64()),
    ] + list(extra_cols or [])  # passthrough columns survive pack()
    return keyed_partition_map(
        tagged,
        ["_rng"],
        pack,
        num_partitions=num_partitions,
        out_schema=pa.schema(schema_fields),
    )


def q_pack_shards(sf_dir: str) -> Dataset:
    """Pack documents into 512-token shards in doc_id order; token
    counts from the vocab tokenizer (one RE2 pass, pruned projection)."""
    import pyarrow.compute as pc

    from engine.queries import _read

    ds = _read(sf_dir, "documents", ["doc_id", "text"], rows_per_block=256)

    def count(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = pc.cast(
            pc.count_substring_regex(pc.utf8_lower(text), "[a-z0-9]+"), pa.int64()
        )
        return pa.table({"doc_id": b["doc_id"], "n_tok": n})

    counted = ds.map_batches(count, batch_format="pyarrow")
    return pack_shards(counted, "doc_id", "n_tok", budget=512)


SQL_PACK_SHARDS = r"""
WITH t AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT) AS n_tok
  FROM documents),
c AS (
  SELECT doc_id, n_tok,
         COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
  FROM t)
SELECT doc_id, n_tok,
       CAST(prev // 512 AS BIGINT) AS shard_id,
       CAST(prev % 512 AS BIGINT) AS offset_in_shard
FROM c
"""


# ------------------------------------------------ per-key frequency cap


def frequency_cap(
    ds: Dataset,
    key: str,
    id_col: str,
    cap: int,
    num_partitions: int = 64,
) -> Dataset:
    """Keep at most ``cap`` rows per ``key`` — deterministically the
    ``cap`` SMALLEST ``id_col`` values (domain rebalancing: the
    CCNet/RefinedWeb-style cap on documents per registered domain, so
    no domain dominates the training mix).

    Scale shape (100 TB):
    1. WINNERS over the pruned (key, id) projection only (~24 B/row):
       per-block vectorized prune to the cap smallest ids per key
       (dictionary-encode + lexsort + run-length cumcount — no Python
       per key), then ONE coarse co-partition on ``key`` and the same
       prune per partition. Exact: a global winner is a winner of its
       block, so block pruning never discards one; ties are impossible
       (ids are unique) so the winner set is repartition-deterministic.
    2. Kept rows = semi-filter of the full corpus by the broadcast
       sorted winner-id array (searchsorted per batch; engine.joins).
       The winner set is bounded by cap x n_keys; for a key universe
       too large to broadcast, the documented path is the same
       bucketed hash-join semi used by dedupe.candidate_docs (the
       text column never enters phase 1 either way).

    Returns the kept rows of ``ds`` (all original columns).
    """

    def block_prune(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        k = b[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        codes = k.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, codes))
        kc = codes[order]
        n = len(kc)
        new = np.ones(n, dtype=bool)
        new[1:] = kc[1:] != kc[:-1]
        starts = np.flatnonzero(new)
        cum = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
        return b.take(pa.array(np.sort(order[cum < cap])))

    def part_prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, id_col], kind="stable")
        rn = df.groupby(key, sort=False).cumcount()
        return df[rn < cap]

    s = ds.schema()
    types = dict(zip(s.names, s.types))
    pruned = ds.select_columns([key, id_col]).map_batches(
        block_prune, batch_format="pyarrow"
    )
    winners = keyed_partition_map(
        pruned,
        [key],
        part_prune,
        num_partitions=num_partitions,
        out_schema=pa.schema([(key, types[key]), (id_col, types[id_col])]),
    )
    # Bounded collect: <= cap x n_keys int64 ids (see docstring).
    wtbl = pa.concat_tables(
        [pa.table({id_col: b[id_col]}) for b in winners.iter_batches(
            batch_size=None, batch_format="pyarrow")]
    )
    ids = wtbl[id_col].to_numpy(zero_copy_only=False)

    from engine.joins import semi_filter

    return semi_filter(ds, ids, id_col)


def q_domain_cap(sf_dir: str, cap: int = 25) -> Dataset:
    """Cap documents per source at ``cap`` (smallest doc_ids win);
    returns the kept rows' (doc_id, source, n_chars) — the winner ids
    themselves are the value check."""
    from engine.queries import _read

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return frequency_cap(ds, key="source", id_col="doc_id", cap=cap)


SQL_DOMAIN_CAP = """
WITH r AS (
  SELECT doc_id, source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents)
SELECT doc_id, source, n_chars FROM r WHERE rn <= 25
"""


# ----------------------------------------- token-budget quota selection


def token_budget_select(
    ds: Dataset,
    key: str,
    id_col: str,
    weight_col: str,
    budget: int,
    order_col: str | None = None,
    descending: bool = True,
    num_partitions: int = 64,
    return_winners: bool = False,
) -> Dataset:
    """Select rows per ``key`` in priority order until a weight budget
    is exhausted — the "fill each language/domain's token quota with
    the best documents first" stage of a training-mix builder (the
    data-constrained scaling recipe: fixed token budget per stratum,
    highest-quality docs win).

    Rule (exact, deterministic): within each key, rank rows by
    ``order_col`` (descending by default), ties broken by ``id_col``
    ascending; keep a row iff the running ``weight_col`` sum — over
    ALL of the key's rows in rank order, kept or not — UP TO AND
    INCLUDING it is <= ``budget`` (the SQL window-SUM rule; weights
    are nonnegative, so the kept set is the maximal rank-prefix whose
    inclusive sum fits).  A first-ranked row heavier than the whole
    budget is dropped (no partial documents).  With
    ``order_col=None``, rank is ``id_col`` ascending alone.

    Scale shape (100 TB) — the frequency_cap contract:
    1. WINNERS over the pruned (key, id, order, weight) int projection
       (~32 B/row): per-block vectorized prune (dictionary-encode +
       lexsort + segment prefix sum, no Python per key) keeps rows
       whose BLOCK-LOCAL running sum is within budget — never discards
       a winner, since a winner's block-local prefix sum is a subset
       sum of its global one.  Each (block, key) with dropped rows
       also emits ONE TOMBSTONE row: the dropped rows' summed weight
       placed at the first-dropped row's (order, id) rank.  Then ONE
       coarse co-partition on ``key`` re-runs the rule per partition
       over survivors + tombstones, which is exact global truth:
       every global predecessor of a true winner has cum <= the
       winner's <= budget, so it is itself a winner and survives
       phase 1 with its true weight (winner cums are exact and no
       tombstone outranks a winner — dropped rows have block-cum >
       budget, hence global cum > budget); while every dropped
       predecessor of a false survivor lands in a tombstone ranked at
       or before it (the first-dropped rank bounds its block's dropped
       ranks), so the false survivor's recomputed cum >= its true
       cum > budget and it is rejected.
    2. Kept rows = broadcast sorted-winner-id semi-filter of the full
       corpus (engine.joins.semi_filter); the winner set is bounded by
       n_keys x budget rows when weights are >= 1 (zero-weight rows
       also survive, bounded by their corpus count); the bucketed
       hash-join semi is the documented path past broadcast size.

    ``return_winners=True`` returns the winner projection itself with
    the exact running sum attached (``cum_<weight_col>``) instead of
    semi-filtering ``ds`` — the cum column makes gate value checks
    cover the per-key ordering and prefix sums, not just membership.
    All columns stay int64-exact, so the DuckDB mirror
    (``SUM(w) OVER (PARTITION BY key ORDER BY ...)``) is bitwise.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    cum_col = f"cum_{weight_col}"
    proj = [key, id_col, weight_col] + ([order_col] if order_col else [])

    def block_prune(b: pa.Table) -> pa.Table:
        b = b.select(proj)
        if b.num_rows == 0:
            return b.append_column("_tomb", pa.array([], pa.bool_()))
        k = b[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        codes = k.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        if order_col is not None:
            o = b[order_col].to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, -o if descending else o, codes))
        else:
            order = np.lexsort((ids, codes))
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        kc = codes[order]
        n = len(kc)
        new = np.ones(n, dtype=bool)
        new[1:] = kc[1:] != kc[:-1]
        cum = np.cumsum(w)
        starts = np.flatnonzero(new)
        seg_lens = np.diff(np.append(starts, n))
        seg_cum = cum - np.repeat(cum[starts] - w[starts], seg_lens)
        keep = seg_cum <= budget
        # Weights >= 0 make block-local cum nondecreasing, so keep is a
        # prefix of each segment: the first dropped row per segment sits
        # at starts + n_keep.
        n_keep = np.add.reduceat(keep.astype(np.int64), starts)
        has_drop = n_keep < seg_lens
        out = b.take(pa.array(np.sort(order[keep]))).append_column(
            "_tomb", pa.array(np.zeros(int(keep.sum()), dtype=bool))
        )
        if not has_drop.any():
            return out
        fd = (starts + n_keep)[has_drop]  # sorted position of first drop
        drop_w = (np.add.reduceat(w, starts) - np.add.reduceat(w * keep, starts))[
            has_drop
        ]
        tomb = b.take(pa.array(order[fd]))
        tomb = tomb.set_column(
            tomb.schema.get_field_index(weight_col), weight_col, pa.array(drop_w)
        ).append_column("_tomb", pa.array(np.ones(len(fd), dtype=bool)))
        return pa.concat_tables([out, tomb.cast(out.schema)])

    sort_cols = [key] + ([order_col] if order_col else []) + [id_col]
    ascending = [True] + ([not descending] if order_col else []) + [True]

    def part_prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=ascending, kind="stable")
        cum = df.groupby(key, sort=False)[weight_col].cumsum()
        sel = (cum <= budget) & ~df["_tomb"]
        out = df[sel].drop(columns=["_tomb"]).copy()
        out[cum_col] = cum[sel]
        return out

    s = ds.schema()
    types = dict(zip(s.names, s.types))
    pruned = ds.select_columns(proj).map_batches(block_prune, batch_format="pyarrow")
    winners = keyed_partition_map(
        pruned,
        [key],
        part_prune,
        num_partitions=num_partitions,
        out_schema=pa.schema([(c, types[c]) for c in proj] + [(cum_col, pa.int64())]),
    )
    if return_winners:
        return winners
    # Bounded collect: <= n_keys x budget ids for weights >= 1 (docstring).
    wtbl = pa.concat_tables(
        [pa.table({id_col: b[id_col]}) for b in winners.iter_batches(
            batch_size=None, batch_format="pyarrow")]
    )
    ids = wtbl[id_col].to_numpy(zero_copy_only=False)

    from engine.joins import semi_filter

    return semi_filter(ds, ids, id_col)


def q_budget_select(sf_dir: str, budget: int = 800) -> Dataset:
    """Fill each source's 800-token quota with the longest documents
    first (n_chars DESC, doc_id tiebreak); the returned winner rows
    carry the exact running token sum (``cum_n_toks``), so the value
    check covers the per-key priority order and prefix sums."""
    from engine.queries import _read

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars", "text"])

    def add_toks(b: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(b["text"], r"\S+"), pa.int64())
        return b.drop_columns(["text"]).append_column("n_toks", toks)

    ds = ds.map_batches(add_toks, batch_format="pyarrow")
    return token_budget_select(
        ds,
        key="source",
        id_col="doc_id",
        weight_col="n_toks",
        budget=budget,
        order_col="n_chars",
        descending=True,
        return_winners=True,
    )


# Mirror of the exact selection rule: rank by (n_chars DESC, doc_id),
# running token sum inclusive, keep while <= budget. n_toks counts
# \S+ spans == pc.count_substring_regex(text, '\S+') (RE2 both sides).
SQL_BUDGET_SELECT = r"""
WITH t AS (
  SELECT doc_id, source, n_chars,
         len(regexp_extract_all(text, '\S+')) AS n_toks
  FROM documents),
o AS (
  SELECT doc_id, source, n_chars, n_toks,
         CAST(SUM(n_toks) OVER (PARTITION BY source ORDER BY n_chars DESC, doc_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_n_toks
  FROM t)
SELECT doc_id, source, n_chars, n_toks, cum_n_toks
FROM o WHERE cum_n_toks <= 800
"""


# ------------- deterministic global shuffle + sharding (X42, round 4)
#
# The training-output stage every large corpus runs last: a seeded,
# reproducible GLOBAL permutation of the rows, cut into fixed-size
# shards (shard_id, pos_in_shard) ready for a partitioned writer.
# Design: permutation key = (id * MULT + seed) mod 2^62 with an ODD
# multiplier — multiplication by an odd constant is BIJECTIVE mod any
# power of two, so distinct ids always get distinct keys (no tiebreak
# column rides the shuffle) and the key inverts if ever needed. Rank
# assignment reuses pack_shards' distributed global prefix sum with a
# unit token weight: prev == the row's 0-based rank in key order, so
# shard_id = rank // shard_size and pos_in_shard = rank % shard_size
# — two passes over an ~24 B/row projection, one coarse co-partition,
# never a driver-side sort. Multiplicative keys of SEQUENTIAL ids are
# near-uniform over [0, 2^62), so the contiguous key ranges the
# prefix sum partitions by stay balanced without sampling.

SHUF_MULT = 6364136223846793005  # odd (Knuth LCG multiplier)
SHUF_BITS = 62  # keys fit int64 (and DuckDB BIGINT) comfortably
SHUF_MASK = (1 << SHUF_BITS) - 1
SHUF_GOLDEN = 11400714819323198485  # 2^64 / phi (splitmix64's gamma)


def shuffle_key(ids: np.ndarray, seed: int) -> np.ndarray:
    """int64 permutation key of each id: (id XOR mix(seed)) * MULT
    mod 2^62 — bijective on [0, 2^62) (xor is an involution, odd
    multiplication is invertible mod any power of two). The seed
    enters through an XOR before the multiply, NOT as an additive
    constant: adding a constant to every key would translate the key
    set without changing its ORDER, i.e. every seed would produce the
    same permutation (caught by the seed-sensitivity test)."""
    s1 = np.uint64((seed * SHUF_GOLDEN) & SHUF_MASK)
    v = ids.astype(np.uint64) ^ s1
    with np.errstate(over="ignore"):
        sk = (v * np.uint64(SHUF_MULT)) & np.uint64(SHUF_MASK)
    return sk.astype(np.int64)


def shard_shuffle(
    ds: Dataset,
    id_col: str = "doc_id",
    seed: int = 7,
    shard_size: int = 64,
    num_partitions: int = 32,
) -> Dataset:
    """Seeded deterministic global shuffle: returns (id, skey,
    shard_id, pos_in_shard) with shard_id/pos assigned by the row's
    global rank in skey order. Same seed -> identical assignment on
    any cluster size or block layout (the key is a pure function of
    the id and ranks are exact). Callers feed the PRUNED id
    projection; the output joins/semi-filters back to payload columns
    (never shuffle text to rank it)."""

    def key(b: pa.Table) -> pa.Table:
        v = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: b[id_col],
                "skey": pa.array(shuffle_key(v, seed)),
                "one": pa.array(np.ones(len(v), dtype=np.int64)),
            }
        )

    keyed = ds.map_batches(key, batch_format="pyarrow")
    out = pack_shards(
        keyed,
        "skey",
        "one",
        budget=shard_size,
        num_partitions=num_partitions,
        id_range=(0, SHUF_MASK),
        extra_cols=[(id_col, pa.int64())],
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                id_col: b[id_col],
                "skey": b["skey"],
                "shard_id": b["shard_id"],
                "pos_in_shard": b["offset_in_shard"],
            }
        ),
        batch_format="pyarrow",
    )
