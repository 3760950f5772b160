"""Distributed as-of join (nearest-earlier / nearest-later match).

The upstream reference (mrihtar/GeoCoordinateConverter) has no as-of
operator; this is one of the custom temporal-join operators a
large-scale training-data pipeline needs (brief: as-of join / range
join / windowed aggregate family). Semantics match DuckDB's
``ASOF LEFT JOIN``: for each left row, pick the right row with the
same key and the greatest ``on`` value <= the left row's ``on``
(``direction="backward"``; ``"forward"`` mirrors with the smallest
``on`` >= left's). Unmatched left rows survive with null (or
``fill``-ed) right payloads.

Ray-Data-first shape (the hash_join pattern, engine/joins.py): tag
both sides, pad each to the union schema with typed nulls, take ONE
hash co-partition shuffle on the join key (every row of a key lands
in exactly one partition — no global sort, no driver collection),
then run a per-partition C-speed ``pandas.merge_asof`` (sort by the
``on`` column inside the partition only). ``num_partitions`` bounds
per-group memory exactly like hash_join's bucket count: size it so
the largest key-partition of the bigger side fits a worker heap; at
100 TB raise it so partitions stay ~ the target block size.

Partitioning assumption (documented per the custom-operator contract):
correctness needs all rows of a join key in one partition — provided
by the shared ``deterministic_key_hash`` coarse partition. Skewed
keys concentrate in single partitions; as-of cannot salt a key (its
matches must co-locate), so a pathological single-key corpus bounds
parallelism at 1 for that key — same contract as any keyed window op
(engine/windows.py).

Determinism: when several right rows share an identical (key, on)
pair, ``tie_breaks`` columns order them and the LAST one wins (i.e.
the max tie-break), mirrored in SQL oracles by a row_number dedup.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset


def _i64able(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_temporal(t)


def _reject_nulls(t, cols: Sequence[str], side: str) -> None:
    """Null ``on`` values and null integer/temporal keys have no as-of
    position, so every route raises on them; null string keys match
    nothing (the pandas legs drop null-key right rows). ``t`` is an
    Arrow table or a pandas frame."""
    for c in cols:
        n = t[c].null_count if isinstance(t, pa.Table) else int(t[c].isna().sum())
        if n:
            raise ValueError(f"asof_join: {n} null value(s) in {side} column {c!r}")


def asof_join(
    left: Dataset,
    right: Dataset,
    key: str,
    on: str,
    direction: str = "backward",
    suffix: str = "_r",
    tie_breaks: Sequence[str] = (),
    fill: Mapping[str, object] | None = None,
    num_partitions: int = 32,
    broadcast_threshold: int = 65_536,
) -> Dataset:
    """As-of join ``left`` to ``right`` on equality of ``key`` and
    nearest ``on`` (see module docstring for semantics and the
    partitioning contract).

    ``right`` must already be projected to ``[key, on] + payload``
    with payload names disjoint from left's columns (rename upstream —
    keeps the one shuffle narrow instead of shipping unused width).
    The matched right ``on`` value is returned as ``f"{on}{suffix}"``.

    ``fill``: optional ``{column: value}`` applied to unmatched left
    rows (which otherwise carry nulls). Filling integer / timestamp
    payloads keeps their exact dtype through the pandas kernel;
    unfilled integer payloads come back as nullable Int64.

    Small right side (count <= ``broadcast_threshold``): the right
    table is collected once, sorted once, ``ray.put`` into the object
    store, and every left batch merge_asofs against it locally — zero
    shuffle, the big side never moves (the broadcast_lookup pattern).
    Pass ``broadcast_threshold=0`` to force the co-partition shuffle
    path when the right side scales with the corpus.

    Null ``on`` values, and null keys of an integer or temporal type,
    raise ``ValueError`` on every route; null string keys match
    nothing.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got {direction!r}")
    l_schema, r_schema = left.schema(), right.schema()
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    if key not in l_cols or key not in r_cols or on not in l_cols or on not in r_cols:
        raise ValueError(f"key={key!r} and on={on!r} must exist on both sides")
    payload = [c for c in r_cols if c not in (key, on)]
    on_r = f"{on}{suffix}"
    overlap = (set(payload) | {on_r}) & set(l_cols)
    if overlap:
        raise ValueError(f"right payload collides with left columns: {overlap}")
    bad_tb = [c for c in tie_breaks if c not in payload]
    if bad_tb:
        raise ValueError(f"tie_breaks must be right payload columns: {bad_tb}")

    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    out_fields = [(c, l_types[c]) for c in l_cols]
    out_fields.append((on_r, r_types[on]))
    out_fields += [(c, r_types[c]) for c in payload]
    out_schema = pa.schema(out_fields)
    out_cols = [f[0] for f in out_fields]
    r_out = [on_r] + payload
    int_payload = {
        c for c in r_out if pa.types.is_integer(dict(out_fields)[c])
    }
    fill = dict(fill or {})
    strict = [on, key] if _i64able(l_types[key]) else [on]  # see _reject_nulls
    strict_r = [on_r, *strict[1:]]

    def finish_fill(out: pd.DataFrame) -> pd.DataFrame:
        """Post-merge null handling shared by both execution paths:
        fill-ed columns keep their exact dtype; unfilled integer
        payloads with unmatched rows become nullable Int64 (never a
        silent float64)."""
        for c in r_out:
            if c in fill:
                want = out_schema.field(c).type
                out[c] = out[c].fillna(fill[c])
                if pa.types.is_integer(want):
                    out[c] = out[c].astype(np.int64)
            elif c in int_payload and out[c].isna().any():
                out[c] = out[c].astype("Int64")  # nullable int, not float
        return out[out_cols]

    # The count probe is a full right-side pass — skip it when the
    # caller already forced the shuffle path (broadcast_threshold=0,
    # the scale-true setting: right side grows with the corpus).
    if broadcast_threshold > 0 and right.count() <= broadcast_threshold:
        return _asof_join_broadcast(
            left, right, key, on, on_r, payload, direction, tie_breaks,
            out_schema, out_cols, r_out, finish_fill, fill, strict,
        )

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(
            "_side", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        )
        for c in r_out:
            batch = batch.append_column(c, pa.nulls(batch.num_rows, dict(out_fields)[c]))
        return batch.select(out_cols + ["_side"])

    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {on_r if c == on else c: batch[c] for c in r_cols}
        t = pa.table(cols)
        t = t.append_column("_side", pa.array(np.ones(t.num_rows, dtype=np.int8)))
        for c in l_cols:
            if c != key:
                t = t.append_column(c, pa.nulls(t.num_rows, l_types[c]))
        return t.select(out_cols + ["_side"])

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")
    both = lt.union(rt)

    def part_fn(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["_side"] == 0, l_cols].copy()
        r = df.loc[df["_side"] == 1, [key, on_r, *payload]].copy()
        _reject_nulls(l, strict, "left")
        _reject_nulls(r, strict_r, "right")
        r = r[r[key].notna()]  # a null string key matches nothing
        if len(l) == 0:
            return pd.DataFrame({c: pd.Series(dtype="object") for c in out_cols}).head(0)
        # The union pads each side's exclusive columns with typed nulls,
        # so an integer merge key arrives as float64 in any partition
        # where the other side contributed rows (pandas int-with-null
        # promotion) — restore the declared dtype so merge_asof sees
        # identical key dtypes in every partition.
        for frame, col in ((l, on), (r, on_r), (l, key), (r, key)):
            want = out_schema.field(col).type
            if pa.types.is_integer(want) and frame[col].dtype.kind == "f":
                frame[col] = frame[col].astype(want.to_pandas_dtype())
        if len(r) == 0:
            out = l
            for c in r_out:
                null = pd.NaT if pa.types.is_temporal(out_schema.field(c).type) else np.nan
                out[c] = null
        else:
            # mergesort = stable. merge_asof resolves equal `on` values
            # positionally: backward takes the LAST such right row,
            # forward the FIRST — so tie-breaks sort ascending for
            # backward and descending for forward, making "max
            # tie-break wins" hold in both directions.
            l = l.sort_values(on, kind="mergesort")
            asc = [True] + [direction == "backward"] * len(tie_breaks)
            r = r.sort_values([on_r, *tie_breaks], ascending=asc, kind="mergesort")
            out = pd.merge_asof(
                l, r, left_on=on, right_on=on_r, by=key, direction=direction
            )
        return finish_fill(out)

    from engine.shuffle import keyed_partition_map

    return keyed_partition_map(
        both, [key], part_fn, num_partitions=num_partitions, out_schema=out_schema
    )


def _asof_join_broadcast(
    left: Dataset,
    right: Dataset,
    key: str,
    on: str,
    on_r: str,
    payload: list,
    direction: str,
    tie_breaks,
    out_schema: pa.Schema,
    out_cols: list,
    r_out: list,
    finish_fill,
    fill: Mapping[str, object] | None,
    strict: list,
) -> Dataset:
    """Small-right-side path: collect the right table once (bounded by
    broadcast_threshold rows), sort it ONCE by (key, on, tie_breaks)
    with the direction-correct tie order, ``ray.put`` it, and probe
    every left batch against it inside ``map_batches`` — zero shuffle,
    the (big) left side never moves. Value-identical to the
    co-partition path (pytest-parametrized equivalence).

    Probe kernel (r5, VERDICT item 6): when key and on are
    integer/temporal on both sides the lookup is Arrow-native — one
    ``np.searchsorted`` over a packed (key, on) structured array per
    batch (backward: side='right' − 1 = the LAST (k,t) ≤ (lk,lt),
    forward: side='left' = the FIRST ≥ — exactly merge_asof's
    positional duplicate rule, with the tie presort making max
    tie-break win in both directions), then a null-masked Arrow
    ``take`` of the payload columns; the batch never converts to
    pandas. Non-integer keys fall back to the per-batch
    ``pd.merge_asof`` closure (same values, one pandas conversion per
    batch)."""
    import ray
    import pyarrow.compute as pc

    rtab = pa.concat_tables(
        [t for t in (ray.get(r) for r in right.to_arrow_refs()) if t.num_columns]
    )
    rtab = pa.table({on_r if c == on else c: rtab[c] for c in rtab.schema.names})
    _reject_nulls(rtab, [on_r, *strict[1:]], "right")

    def _i64(arr) -> np.ndarray:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        v = arr.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "M":
            v = v.astype("datetime64[us]")
        return v.view(np.int64) if v.dtype.kind == "M" else v.astype(np.int64)

    l_schema = left.schema()
    fast = (
        _i64able(dict(zip(l_schema.names, l_schema.types))[key])
        and _i64able(dict(zip(l_schema.names, l_schema.types))[on])
        and _i64able(rtab.schema.field(key).type)
        and _i64able(rtab.schema.field(on_r).type)
    )

    from engine.shuffle import conform_blocks

    fill = dict(fill or {})
    l_cols_local = [c for c in out_cols if c not in r_out]

    if fast:
        # key-primary sort (merge_asof's by=key grouping made key order
        # irrelevant for the pandas path; the struct probe needs it)
        sort_keys = [(key, "ascending"), (on_r, "ascending")] + [
            (t, "ascending" if direction == "backward" else "descending")
            for t in tie_breaks
        ]
        rtab_s = (
            rtab.take(pc.sort_indices(rtab, sort_keys=sort_keys))
            if rtab.num_rows
            else rtab
        )
        rk, rt = _i64(rtab_s[key]), _i64(rtab_s[on_r])
        r_struct = np.empty(len(rk), dtype=[("k", "i8"), ("t", "i8")])
        r_struct["k"], r_struct["t"] = rk, rt
        rref = ray.put((r_struct, rk, rtab_s.select(r_out).combine_chunks()))

        def lookup_arrow(b: pa.Table) -> pa.Table:
            r_struct_, rk_, rpay = ray.get(rref)
            n_r = len(rk_)
            _reject_nulls(b, strict, "left")
            lk, lt_ = _i64(b[key]), _i64(b[on])
            l_struct = np.empty(len(lk), dtype=[("k", "i8"), ("t", "i8")])
            l_struct["k"], l_struct["t"] = lk, lt_
            if n_r == 0:
                idx = np.full(len(lk), -1, dtype=np.int64)
                valid = np.zeros(len(lk), dtype=bool)
            elif direction == "backward":
                pos = np.searchsorted(r_struct_, l_struct, side="right") - 1
                valid = (pos >= 0) & (rk_[np.maximum(pos, 0)] == lk)
                idx = np.maximum(pos, 0)
            else:
                pos = np.searchsorted(r_struct_, l_struct, side="left")
                valid = (pos < n_r) & (rk_[np.minimum(pos, n_r - 1)] == lk)
                idx = np.minimum(pos, n_r - 1)
            # null indices -> null outputs through Arrow take
            take_idx = pa.array(idx, pa.int64(), mask=~valid)
            cols = {c: b[c] for c in l_cols_local}
            for c in r_out:
                g = pc.take(rpay[c], take_idx) if n_r else pa.nulls(
                    len(lk), out_schema.field(c).type
                )
                if c in fill:
                    g = pc.fill_null(
                        pc.cast(g, out_schema.field(c).type),
                        pa.scalar(fill[c], out_schema.field(c).type),
                    )
                cols[c] = g
            return pa.table(cols).select(out_cols)

        return conform_blocks(
            left.map_batches(lookup_arrow, batch_format="pyarrow"), out_schema
        )

    rdf = rtab.to_pandas()
    asc = [True] + [direction == "backward"] * len(tie_breaks)
    rdf = rdf.sort_values([on_r, *tie_breaks], ascending=asc, kind="mergesort")
    rdf = rdf.loc[rdf[key].notna(), [key, on_r, *payload]].reset_index(drop=True)
    rref = ray.put(rdf)

    def lookup(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series(dtype="object") for c in out_cols}).head(0)
        _reject_nulls(df, strict, "left")
        r = ray.get(rref)
        if len(r) == 0:
            out = df.copy()
            for c in r_out:
                null = pd.NaT if pa.types.is_temporal(out_schema.field(c).type) else np.nan
                out[c] = null
        else:
            l = df.sort_values(on, kind="mergesort")
            out = pd.merge_asof(
                l, r, left_on=on, right_on=on_r, by=key, direction=direction
            )
        return finish_fill(out)

    return conform_blocks(
        left.map_batches(lookup, batch_format="pandas"), out_schema
    )
