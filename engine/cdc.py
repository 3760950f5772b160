"""CDC upsert / snapshot compaction (X45): merge a base snapshot with
a changelog of keyed upserts/deletes into the next snapshot — the
latest-wins MERGE INTO / Hudi-Iceberg-Delta compaction that every
continuously-ingested corpus (crawl refreshes, metadata stores, the
X24 dedup index lifecycle) runs at scale.

Upstream parity: no analogue in GeoCoordinateConverter — brief-
mandated large-scale ingest infrastructure (the X24/X25 family).

Semantics (exactly as mirrored in SQL — change together):
  one output row per key; the winner is the row with the greatest
  (seq, src, op) triple, where src orders changelog(1) OVER base(0)
  on a seq tie, and op 'u' over 'd' on a full tie within one source;
  the key appears in the output iff its winner is an upsert.
  A snapshot's rows are implicit upserts carrying the seq they were
  written at; a changelog may hold many entries per key.

Scale design — the property that matters at 100 TB. The route is the
``engine.joins`` rule on the changelog's per-key winner count: at
most ``joins.BROADCAST_MAX_KEYS`` winners -> broadcast, else shuffle.
  * broadcast: the changelog reduces to
    winners with ONE changelog-scale co-partition, the winner table
    broadcasts once via ``ray.put``, and the base corpus NEVER enters
    a shuffle — one pruned key-column pass finds which changed keys
    exist in the base, one full pass emits survivors + in-place
    replacements block-locally (output stays co-located with the
    base's partitioning, exactly what a partitioned snapshot sink
    wants), and brand-new keys append from the winner table. Daily
    changelogs are ~1e-3 of a 100 TB base; shuffling the base to
    merge them is the classic anti-pattern this path avoids.
  * shuffle: the general path — tag src, align schemas,
    union, one co-partition by key hash, vectorized per-partition
    winner take (lexsort + drop_duplicates keep-last). Needed only
    when the changelog rivals the base (e.g. a backfill); the union
    feeding a sort is the documented Ray-2.49 backpressure-wedge
    shape (see dedupe.both_sides), so the union input is bounded by
    construction here: both sides are already projected to output
    columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from engine.shuffle import keyed_partition_map


def _winner_frame(df: pd.DataFrame, key: str, seq: str, op: str) -> pd.DataFrame:
    """Vectorized per-partition winner take: greatest (seq, src, op)
    per key. C-speed: one lexsort + one keep-last dedup."""
    df = df.sort_values([key, seq, "_src", op], kind="stable")
    return df.drop_duplicates(subset=[key], keep="last")


def changelog_winners(
    changelog: Dataset,
    key: str,
    seq_col: str,
    op_col: str,
    num_partitions: int = 16,
) -> Dataset:
    """Reduce a changelog to one winner row per key (changelog-scale
    co-partition; the base is not involved)."""
    def add_src(b: pa.Table) -> pa.Table:
        return b.append_column("_src", pa.array(np.ones(len(b), np.int8)))

    tagged = changelog.map_batches(add_src, batch_format="pyarrow")
    # tagged blocks are arrow, so schema() yields pa.DataType columns
    # (Ray executes only the first block to infer it).
    s = tagged.schema()
    out_schema = pa.schema([pa.field(n, t) for n, t in zip(s.names, s.types)])
    return keyed_partition_map(
        tagged,
        [key],
        lambda df: _winner_frame(df, key, seq_col, op_col),
        num_partitions=num_partitions,
        out_schema=out_schema,
    )


class _MatchedKeys:
    """Actor-pool stage for the broadcast path's pruned key pass."""

    def __init__(self, kref=None, key="k", wk=None):
        self.wk = ray.get(kref) if kref is not None else wk
        self.key = key

    def __call__(self, b: pa.Table) -> pa.Table:
        k = b[self.key].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self.wk, k)
        idx_c = np.minimum(idx, max(len(self.wk) - 1, 0))
        m = (len(self.wk) > 0) & (self.wk[idx_c] == k)
        return pa.table({self.key: pa.array(k[m])})


class _MergeBlocks:
    """Actor-pool stage for the broadcast path's full base pass: the
    changelog winner frame is fetched once per actor in ``__init__``
    (zero-copy from the local store), never per batch."""

    def __init__(self, wref=None, key="k", seq_col="seq", op_col="op", base_cols=(), w=None):
        w = ray.get(wref) if wref is not None else w
        self.key, self.seq_col, self.op_col = key, seq_col, op_col
        self.base_cols = list(base_cols)
        self.wk = w[key].to_numpy()
        self.ws = w[seq_col].to_numpy()
        self.w = w

    def __call__(self, b: pa.Table) -> pa.Table:
        wk, ws = self.wk, self.ws
        k = b[self.key].to_numpy(zero_copy_only=False)
        s = b[self.seq_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(wk, k)
        idx_c = np.minimum(idx, max(len(wk) - 1, 0))
        m = (len(wk) > 0) & (wk[idx_c] == k)
        base_wins = np.zeros(len(b), bool)
        base_wins[m] = s[m] > ws[idx_c[m]]
        keep = ~m | base_wins
        out = b.filter(pa.array(keep))
        # changelog-winning upserts for keys present in this block
        repl_sel = m & ~base_wins
        if repl_sel.any():
            rows = self.w.iloc[idx_c[repl_sel]]
            rows = rows[rows[self.op_col] == "u"]
            if len(rows):
                repl = pa.Table.from_pandas(
                    rows[self.base_cols], preserve_index=False
                ).cast(out.schema)
                out = pa.concat_tables([out, repl])
        return out


def snapshot_merge(
    base: Dataset,
    changelog: Dataset,
    key: str,
    seq_col: str = "seq",
    op_col: str = "op",
    num_partitions: int = 64,
) -> Dataset:
    """Latest-wins merge of ``base`` (unique keys, implicit upserts)
    with ``changelog`` (op column: 'u' upsert / 'd' delete). Returns
    the next snapshot with the base's column order.

    Route (module docstring): at most ``joins.BROADCAST_MAX_KEYS``
    changelog winners -> broadcast, else the co-partition shuffle."""
    from engine import joins

    base_cols = base.schema().names
    assert op_col not in base_cols, "base is a snapshot: implicit upserts only"
    cl_cols = changelog.schema().names
    assert set(cl_cols) == set(base_cols) | {op_col}, (base_cols, cl_cols)

    winners = changelog_winners(changelog, key, seq_col, op_col).materialize()
    if winners.count() <= joins.BROADCAST_MAX_KEYS:
        wdf = winners.to_pandas().sort_values(key, kind="stable")
        wkeys = wdf[key].to_numpy()

        # Size-adaptive shipping (the flag_join precedent): a small
        # winner table rides the serialized task closure — zero
        # actor-pool startup (measured ~1.2 s across the two pools at
        # gate scale); a large one broadcasts once via ray.put into
        # actor pools so it ships per ACTOR, never per task.
        w_bytes = int(wdf.memory_usage(deep=True).sum())
        use_actors = w_bytes > (8 << 20)

        # Pass A (pruned: the key column only, ~8 B/row leaves
        # storage): which changed keys exist in the base?
        pruned = base.select_columns([key])
        if use_actors:
            probe = pruned.map_batches(
                _MatchedKeys,
                fn_constructor_kwargs=dict(kref=ray.put(wkeys), key=key),
                batch_format="pyarrow",
                concurrency=(1, 8),
            )
        else:
            finder = _MatchedKeys(key=key, wk=wkeys)
            probe = pruned.map_batches(finder.__call__, batch_format="pyarrow")
        matched = probe.to_pandas()
        matched_keys = np.sort(matched[key].to_numpy())

        # Pass B (full): survivors + in-place replacements, emitted
        # block-locally — the base never shuffles.
        if use_actors:
            merged = base.map_batches(
                _MergeBlocks,
                fn_constructor_kwargs=dict(
                    wref=ray.put(wdf),
                    key=key,
                    seq_col=seq_col,
                    op_col=op_col,
                    base_cols=base_cols,
                ),
                batch_format="pyarrow",
                concurrency=(1, 8),
            )
        else:
            merger = _MergeBlocks(
                key=key, seq_col=seq_col, op_col=op_col, base_cols=base_cols, w=wdf
            )
            merged = base.map_batches(merger.__call__, batch_format="pyarrow")

        # Brand-new keys: changelog upsert winners absent from the base.
        new_rows = wdf[
            (wdf[op_col] == "u")
            & ~np.isin(wdf[key].to_numpy(), matched_keys, assume_unique=False)
        ]
        if len(new_rows):
            import ray.data as rd

            # winners carry the changelog's ARROW schema (set by
            # changelog_winners' out_schema): base columns + op + _src.
            ws = winners.schema()
            base_schema = pa.schema(
                [
                    pa.field(n, t)
                    for n, t in zip(ws.names, ws.types)
                    if n in base_cols
                ]
            )
            news = rd.from_arrow(
                pa.Table.from_pandas(new_rows[base_cols], preserve_index=False)
                .select(base_cols)
                .cast(pa.schema([base_schema.field(c) for c in base_cols]))
                .replace_schema_metadata(None)
            )
            merged = merged.union(news)
        return merged

    # General co-partition path: both sides projected + tagged, one
    # key-hash shuffle, vectorized winner take per partition.
    def tag_base(b: pa.Table) -> pa.Table:
        n = len(b)
        b = b.append_column(op_col, pa.array(np.full(n, "u"), pa.string()))
        return b.append_column("_src", pa.array(np.zeros(n, np.int8)))

    def tag_cl(b: pa.Table) -> pa.Table:
        cols = base_cols + [op_col]
        return b.select(cols).append_column(
            "_src", pa.array(np.ones(len(b), np.int8))
        )

    # Materialize the union feeding the co-partition sort: Ray 2.49's
    # streaming executor trickles a Union directly upstream of a sort
    # under backpressure (measured here: 475 s -> 11.7 s at a 10M-row
    # base under a 2 GB cap; same wedge documented at
    # dedupe.both_sides and graph.triangle closure). Bounded DAG
    # break: both sides are already projected to output columns, and
    # the sort materializes the same bytes anyway.
    both = (
        base.map_batches(tag_base, batch_format="pyarrow")
        .union(changelog.map_batches(tag_cl, batch_format="pyarrow"))
        .materialize()
    )
    bs = both.schema()  # arrow (post-map_batches; first block only)
    schema = pa.schema([pa.field(n, t) for n, t in zip(bs.names, bs.types)])

    def win_keep_upserts(df: pd.DataFrame) -> pd.DataFrame:
        w = _winner_frame(df, key, seq_col, op_col)
        return w[w[op_col] == "u"]

    merged = keyed_partition_map(
        both,
        [key],
        win_keep_upserts,
        num_partitions=num_partitions,
        out_schema=schema,
    )
    return merged.drop_columns([op_col, "_src"])
