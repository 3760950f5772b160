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

Scale design — the property that matters at 100 TB. The changelog
first reduces to one winner row per key (``changelog_winners``, one
changelog-scale co-partition, materialized and counted). The route is
the ``engine.joins`` rule on that count:
  * at most ``joins.BROADCAST_MAX_KEYS`` winners: the sorted winner
    keys and an Arrow winner table go to the object store with one
    ``ray.put`` and plain map functions read them (the
    ``joins.broadcast_lookup`` shape). The base NEVER enters a
    shuffle: a ``joins.semi_filter`` pass over the base's key column
    finds which changed keys exist in the base, and one full pass
    probes each base block with the shared searchsorted
    (``joins._positions``), keeps survivors and takes in-place
    replacements from the winner table block-locally (output stays
    co-located with the base's partitioning, exactly what a
    partitioned snapshot sink wants); brand-new keys append from the
    winner table. Daily changelogs are ~1e-3 of a 100 TB base;
    shuffling the base to merge them is the anti-pattern this avoids.
  * beyond it (the changelog rivals the base, e.g. a backfill): the
    base, tagged src 0, is unioned with the winners (not the full
    changelog, so the changelog shuffles once) and one co-partition
    by key hash takes the winner per key again. The rule — greatest
    (seq, src, op) — is associative, so merging the base with the
    winners equals merging it with the whole changelog. The union
    feeding a sort is the documented Ray-2.49 backpressure-wedge
    shape, so it is materialized (both sides are already projected
    to output columns).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
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
        parts = [
            b for b in winners.iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows
        ]
        if not parts:
            return base
        w = pa.concat_tables(parts).sort_by(key).combine_chunks()
        wk = w[key].to_numpy(zero_copy_only=False)
        upsert = pc.equal(w[op_col], "u").to_numpy(zero_copy_only=False)
        ref = ray.put(
            (wk, w[seq_col].to_numpy(zero_copy_only=False), upsert, w.select(base_cols))
        )

        # Pass A (pruned: the key column only, ~8 B/row leaves
        # storage): which changed keys exist in the base?
        matched = joins.semi_filter(base.select_columns([key]), wk, key)
        in_base = np.zeros(len(wk), dtype=bool)
        for b in matched.iter_batches(batch_size=None, batch_format="pyarrow"):
            in_base[joins._positions(wk, b[key])[0]] = True

        # Pass B (full): survivors + in-place replacements, emitted
        # block-locally — the base never shuffles.
        def merge_block(b: pa.Table) -> pa.Table:
            wk, ws, upsert, rows = ray.get(ref)
            pos, hit = joins._positions(wk, b[key])
            s = b[seq_col].to_numpy(zero_copy_only=False)
            base_wins = hit & (s > ws[pos])
            repl = pos[hit & ~base_wins & upsert[pos]]
            out = b.filter(pa.array(~hit | base_wins))
            return pa.concat_tables([out, rows.take(pa.array(repl)).cast(out.schema)])

        merged = base.map_batches(merge_block, batch_format="pyarrow")
        # Brand-new keys: changelog upsert winners absent from the base.
        new_rows = w.filter(pa.array(upsert & ~in_base)).select(base_cols)
        if new_rows.num_rows:
            import ray.data as rd

            merged = merged.union(rd.from_arrow(new_rows))
        return merged

    # Co-partition route: the base and the winners, projected and
    # tagged, one key-hash shuffle, vectorized winner take per partition.
    def tag_base(b: pa.Table) -> pa.Table:
        n = len(b)
        b = b.append_column(op_col, pa.array(np.full(n, "u"), pa.string()))
        return b.append_column("_src", pa.array(np.zeros(n, np.int8)))

    # Materialize the union feeding the co-partition sort: Ray 2.49's
    # streaming executor trickles a Union directly upstream of a sort
    # under backpressure (measured here: 475 s -> 11.7 s at a 10M-row
    # base under a 2 GB cap; same wedge documented at
    # dedupe.both_sides and graph.triangle closure). Bounded DAG
    # break: both sides are already projected to output columns, and
    # the sort materializes the same bytes anyway.
    both = (
        base.map_batches(tag_base, batch_format="pyarrow")
        .union(winners.select_columns(base_cols + [op_col, "_src"]))
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
