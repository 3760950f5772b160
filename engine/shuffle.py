"""Shuffle-minimizing aggregation helpers (SURVEY.md §2.5 A1, §4 skew).

Web-data cell distributions are Zipfian (city cells ≫ rural), so a
bare ``groupby("cell")`` shuffles every row and hot keys land on one
reducer. The combiner pattern here pre-aggregates *inside*
``map_batches`` — one output row per (key, batch) — so the wide
shuffle moves only partials. This is strictly stronger than key
salting for algebraic aggregates (count/sum/min/max/mean): the
pre-aggregated stream is already salt-partitioned by block, and the
final groupby touches ~keys×blocks rows instead of all rows.

``salted_groupby_count`` additionally demonstrates explicit
(key, salt) two-phase aggregation for consumers that need the salting
shape itself (north_rule "explicit H3-cell salting").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Sum


# Rows per final-merge partition of grouped_count_sums (read at call
# time, so tests pin it to force the partitioned route).
MERGE_PARTITION_ROWS = 65_536

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _fnv1a_bytes_vectorized(
    arr: pa.Array,
    offset: np.uint64 = _FNV_OFFSET,
    prime: np.uint64 = _FNV_PRIME,
) -> np.ndarray:
    """FNV-1a over each string's utf-8 bytes, fully vectorized: one
    numpy pass per byte POSITION (max string length iterations over
    C-speed masked ops), zero per-row Python. Operates directly on the
    Arrow offsets/values buffers (zero-copy). ``offset``/``prime``
    select an independent hash from the same family (the exact-dedup
    digest pairs two of them for a version-stable 128-bit digest —
    unlike library hashes, these constants are pinned here forever)."""
    arr = arr.cast(pa.large_utf8())
    off0 = arr.offset
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[off0 : off0 + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = offs[1:] - offs[:-1]
    starts = offs[:-1]
    h = np.full(len(arr), offset, dtype=np.uint64)
    maxlen = int(lens.max()) if len(lens) else 0
    with np.errstate(over="ignore"):  # mod-2^64 wrap intended
        for j in range(maxlen):
            active = lens > j
            h[active] = (h[active] ^ data[starts[active] + j].astype(np.uint64)) * prime
    return h.view(np.int64)


def deterministic_key_hash(batch: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Deterministic int64 hash of one or more key columns, identical
    across worker processes (NOT built-in hash(): PYTHONHASHSEED
    differs per process) and well-mixed in the high bits (the raw
    Knuth multiply is the identity permutation mod a power of two —
    ``2654435761 % 16 == 1`` — so always fold with >> 32). Shared by
    keyed_partition_map, grouped_count_sums and joins.hash_join.

    String keys: dictionary-encode (C-speed), FNV-1a the UNIQUE values
    with the vectorized byte-position kernel, gather by index — no
    per-row Python on any key path (the old per-row crc32 loop sat on
    the hot path of every string-keyed aggregate)."""
    h = np.zeros(batch.num_rows, dtype=np.int64)
    for k in keys:
        kc = batch[k]
        if isinstance(kc, pa.ChunkedArray):
            kc = kc.combine_chunks()
        if pa.types.is_string(kc.type) or pa.types.is_large_string(kc.type):
            if kc.null_count:
                # Null keys hash as a fixed sentinel string (determinism
                # is all that matters — both join sides share this fn);
                # without the fill, dictionary indices for nulls come
                # back NaN and index out of bounds.
                import pyarrow.compute as pc

                kc = pc.fill_null(kc, "\x00__null_key__")
            enc = kc.dictionary_encode()
            uh = _fnv1a_bytes_vectorized(enc.dictionary)
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            hk = uh[idx]
        else:
            if pa.types.is_integer(kc.type) and kc.null_count:
                # Null ints hash as 0: to_numpy would turn the whole
                # column into float64, so the valid keys would hash
                # unlike the same keys in a null-free block.
                kc = kc.fill_null(0)
            kv = kc.to_numpy(zero_copy_only=False)
            if kv.dtype.kind in "iu":
                hk = (kv.astype(np.int64) * np.int64(-7046029254386353131)) >> np.int64(32)
            else:
                import zlib

                hk = np.array(
                    [zlib.crc32(str(x).encode("utf-8")) for x in kv], dtype=np.int64
                )
        with np.errstate(over="ignore"):
            h = h * np.int64(1000003) + hk
    return h


def _combine_batch(
    batch: pa.Table,
    keys: Sequence[str],
    sum_cols: Sequence[str],
    min_cols: Sequence[str] = (),
    max_cols: Sequence[str] = (),
) -> pa.Table:
    """Per-batch partial aggregation: one row per key tuple with count
    + per-column sums/mins/maxs, via Arrow's hash aggregation —
    zero-copy in, no pandas object-boxing of string keys (measured 8x
    vs the pandas groupby this replaces at 64k rows x 2 string keys).
    ``use_threads=False``: the kernel runs inside a 1-CPU Ray task.
    Integer columns accumulate in int64 (exact — the oracle-facing
    cents/milli columns must never round-trip through float64)."""
    aggs = [([], "count_all")]  # row count per group (null-key safe)
    aggs += [(c, "sum") for c in sum_cols]
    aggs += [(c, "min") for c in min_cols]
    aggs += [(c, "max") for c in max_cols]
    out = pa.TableGroupBy(batch, list(keys), use_threads=False).aggregate(aggs)
    mapping = {"count_all": "_cnt"}
    for c in sum_cols:
        mapping[f"{c}_sum"] = f"_sum_{c}"
    for c in min_cols:
        mapping[f"{c}_min"] = f"_min_{c}"
    for c in max_cols:
        mapping[f"{c}_max"] = f"_max_{c}"
    return out.rename_columns([mapping.get(n, n) for n in out.column_names])


def grouped_count_sums(
    ds: Dataset,
    key: str | Sequence[str],
    sum_cols: Sequence[str] = (),
    mean_cols: Sequence[str] = (),
    min_cols: Sequence[str] = (),
    max_cols: Sequence[str] = (),
    num_partitions: int = 64,
    salts: int | str = 1,
) -> Dataset:
    """count + sums + means + mins/maxs per key tuple with per-batch
    combining and a partition-wise vectorized final merge.

    Phase 1 (map side): one partial row per (key tuple, batch) — the
    shuffle moves partials, not rows. The partials are output-scale
    (at most n_keys x blocks rows), so they are materialized and
    counted: this EXECUTES ``ds`` at call time. Phase 2 merges them
    in ``max(1, min(num_partitions, rows // MERGE_PARTITION_ROWS))``
    partitions. One partition (every rollup whose partials fit one
    task) is one ``keyed_partition_map`` task with no sort. More
    partitions co-group the partials on a coarse partition key
    (``hash(keys) % P``) and merge each partition with one C-speed
    pandas groupby — Ray's sort-based aggregate instead pays ~0.1 ms
    *per output group* (measured: 18 s for 87 k groups), so per-group
    Python overhead is paid P times, not n_keys times.

    ``salts`` — hot-key (Zipfian) protection for a partitioned merge.
    A hot key contributes one partial row PER BLOCK, all landing in
    one merge partition (at 100 TB: ~1M blocks -> ~1M rows serialized
    on one reducer). ``salts=S > 1`` inserts a salted PRE-MERGE:
    partial rows get ``_salt = row % S`` and are first merged per (key
    tuple, salt) — the hot key's per-block partials spread over S
    partitions and the final merge sees at most S rows per key. All
    merged stats are associative+commutative (counts/sums/mins/maxs;
    means derive from sums), so results are bit-identical (pytest:
    50%-hot-key corpus, salted == unsalted == oracle on both routes).
    ``salts="auto"`` runs the SURVEY-§4 probe — sampled_key_histogram
    + choose_salts — and salts only when the sampled top-key share
    warrants it; the probe RE-EXECUTES ``ds``'s lineage for the
    sample. The pre-merge and the probe run only when the merge needs
    more than one partition: a one-task merge has no reducer to skew.

    Output columns: ``keys..., cnt, sum_<c>..., mean_<c>...,
    min_<c>..., max_<c>...``.
    """
    import pandas as pd

    keys = [key] if isinstance(key, str) else list(key)
    sum_all = tuple(dict.fromkeys(tuple(sum_cols) + tuple(mean_cols)))
    partials = ds.map_batches(
        _combine_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(
            keys=keys, sum_cols=sum_all, min_cols=min_cols, max_cols=max_cols
        ),
    ).materialize()

    def merge_partitions(rows: Dataset) -> int:
        # Each merge partition wants >= MERGE_PARTITION_ROWS rows before
        # its fixed cost amortizes (count is free on a materialized set).
        return max(1, min(num_partitions, rows.count() // MERGE_PARTITION_ROWS))

    def merge(df: pd.DataFrame, by: list[str]) -> pd.DataFrame:
        agg: dict[str, tuple] = {"_cnt": ("_cnt", "sum")}
        for c in sum_all:
            agg[f"_sum_{c}"] = (f"_sum_{c}", "sum")
        for c in min_cols:
            agg[f"_min_{c}"] = (f"_min_{c}", "min")
        for c in max_cols:
            agg[f"_max_{c}"] = (f"_max_{c}", "max")
        return df.groupby(by, sort=False, dropna=False).agg(**agg).reset_index()

    parts = merge_partitions(partials)
    if parts > 1:
        if salts == "auto":
            hist = sampled_key_histogram(ds, keys[0])
            salts = choose_salts(hist, int(hist.cnt.sum()) if len(hist) else 0)
        if int(salts) > 1:
            s = int(salts)

            def add_salt(b: pa.Table) -> pa.Table:
                salt = (np.arange(b.num_rows, dtype=np.int64) % s).astype(np.int32)
                return b.append_column("_salt", pa.array(salt))

            # Materialized: a DAG break between the two sort stages.
            # Fused lazily, Ray 2.49's streaming executor interleaves the
            # second Sort's map tasks with the first Sort's reduce tasks
            # and the pair runs ~2.4x slower at low parallelism
            # (measured: 15.8 s fused vs 6.9 s split at 8 CPUs, 4M rows
            # — same family as the Union->Sort wedge, see
            # engine/dedupe.py). The pre-merge leaves <= n_keys * S rows.
            partials = (
                keyed_partition_map(
                    partials.map_batches(add_salt, batch_format="pyarrow"),
                    keys + ["_salt"],
                    lambda df: merge(df, keys + ["_salt"]),
                    parts,
                )
                .map_batches(
                    lambda b: b.drop_columns(["_salt"]), batch_format="pyarrow"
                )
                .materialize()
            )
            parts = merge_partitions(partials)

    def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = merge(df, keys)
        out = g[keys].copy()
        out["cnt"] = g["_cnt"].astype(np.int64)
        for c in sum_cols:
            out[f"sum_{c}"] = g[f"_sum_{c}"]
        for c in mean_cols:
            out[f"mean_{c}"] = g[f"_sum_{c}"] / g["_cnt"]
        for c in min_cols:
            out[f"min_{c}"] = g[f"_min_{c}"]
        for c in max_cols:
            out[f"max_{c}"] = g[f"_max_{c}"]
        return out

    return keyed_partition_map(partials, keys, merge_partition, parts)


def _own_object_ndarrays(df):
    """Give every ndarray held in an object column its own buffer.

    Ray 2.49 data-corruption guard: when a partition_fn emits
    list-of-ndarray columns whose elements are contiguous VIEWS of one
    base (the natural ``arr[s:s+l]`` slicing idiom),
    ``ArrowVariableShapedTensorArray.from_numpy`` takes a zero-copy
    path that ships ``raveled[-1].base`` and reads it from OFFSET 0.
    If pandas consolidated two float64 source columns into one 2-D
    block, both emitted list columns collapse to that same base and
    silently serialize the block's first rows — e.g. ``ys`` becoming a
    copy of ``xs`` (reproduced ~1-in-20 runs on the shapefile
    reassemble pipeline; the trigger is pandas' nondeterministic block
    consolidation). Owning copies force from_numpy's safe concatenate
    path. Probed directly in
    tests/test_engine_infra.py::test_keyed_partition_map_owns_ndarray_view_columns."""
    import pandas as pd

    for c in df.columns:
        if df[c].dtype == object:
            vals = df[c].to_numpy()
            if any(isinstance(v, np.ndarray) and v.base is not None for v in vals):
                df[c] = pd.Series(
                    [
                        v.copy()
                        if isinstance(v, np.ndarray) and v.base is not None
                        else v
                        for v in vals
                    ],
                    index=df.index,
                    dtype=object,
                )
    return df


# Test-visible alias (the guard is an implementation detail of
# keyed_partition_map; the test probes it against Ray's from_numpy).
_own_object_ndarrays_for_tests = _own_object_ndarrays


def keyed_partition_map(
    ds: Dataset,
    keys: Sequence[str],
    partition_fn,
    num_partitions: int = 64,
    out_schema: pa.Schema | None = None,
) -> Dataset:
    """Co-group by a COARSE partition of the key columns and apply one
    vectorized ``partition_fn(pandas.DataFrame) -> DataFrame`` per
    partition (all rows of any fine key land in the same partition).

    This replaces ``groupby(keys).map_groups(per_group_fn)`` when the
    fine-key cardinality is large: Ray's sort-based groupby pays
    ~0.1 ms of per-group overhead (measured 8 s for the 80k LSH band
    buckets of a 5k-doc corpus), while this pays it ``num_partitions``
    times and lets the partition_fn handle fine groups at C speed.

    Partitioning contract (measured, Ray 2.49): the sort's map stage
    splits every input block into ``num_partitions`` sub-blocks, and
    Ray stores any object below ``max_direct_call_object_size``
    (100 KB default) INLINE in the owner's (driver's) heap instead of
    plasma — so ``block_bytes / num_partitions`` must stay above
    ~100 KB or the shuffle parks ~its whole payload on the driver
    (verified: a 240 MB string shuffle at 64 blocks x 64 partitions
    drove driver RssAnon to 0.57 GB; the same shuffle at 16 x 4, or
    with the inline cap lowered to 10 KB, stayed at ~0.1 GB). At the
    production 128 MB block target even 1024 partitions clears the
    threshold; only small-block test corpora can trip it — size
    ``num_partitions`` down for tiny inputs.

    ``out_schema``: declared output schema. Ray's pandas ``map_groups``
    emits zero-column empty blocks for empty partitions, whose unified
    schema types every column as null — downstream stages then log
    "Failed to hash the schemas" / mixed-RefBundle warnings and acero
    joins reject the null-typed fields. When given, every output block
    is conformed to the schema (per-block metadata cast, ~free).

    ``num_partitions=1``: no ``_pkey`` and no sort. One Ray task takes
    the input's blocks (``ds.to_arrow_refs()``, which EXECUTES ``ds``
    at call time), concatenates them, runs ``partition_fn`` once on all
    rows and returns the result as a one-block materialized dataset.
    An input with no rows gives zero rows without calling
    ``partition_fn`` (as no partition would), typed by ``out_schema``
    when one is given.

    Known limit (``num_partitions > 1``): a result with ZERO rows
    overall still reports a None dataset schema — Ray (2.49) drops
    empty blocks from schema unification and never runs map_batches
    UDFs on them, so no user code can retype a fully-empty dataset.
    Degenerate only (consumers see correct schemas whenever any
    partition emitted rows)."""
    if num_partitions == 1:
        import ray.data as rd

        ref = _one_partition.remote(partition_fn, out_schema, *ds.to_arrow_refs())
        return rd.from_arrow_refs([ref])

    def add_pkey(batch: pa.Table) -> pa.Table:
        h = deterministic_key_hash(batch, keys)
        return batch.append_column(
            "_pkey", pa.array((np.abs(h) % num_partitions).astype(np.int32))
        )

    tagged = ds.map_batches(add_pkey, batch_format="pyarrow")

    def run(df):
        out = partition_fn(df.drop(columns=["_pkey"]))
        return _own_object_ndarrays(out)

    res = tagged.groupby("_pkey").map_groups(run, batch_format="pandas")
    if out_schema is not None:
        res = conform_blocks(res, out_schema)
    return res


@ray.remote
def _one_partition(partition_fn, out_schema: pa.Schema | None, *blocks) -> pa.Table:
    """keyed_partition_map's one-partition merge: ``partition_fn`` over
    all rows, converted as on the sort route. Every block becomes
    Arrow first: a dataset can mix pandas and Arrow blocks, and
    ``to_arrow_refs`` passes pandas blocks through when the unified
    schema is Arrow. All rows then form one pandas batch, and the
    returned frame is built into a block, so ndarray columns become
    tensor columns."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    accs = [BlockAccessor.for_block(b) for b in blocks]
    tables = [a.to_arrow() for a in accs if a.num_rows()]
    if not tables:
        return pa.table({}) if out_schema is None else out_schema.empty_table()
    df = BlockAccessor.for_block(pa.concat_tables(tables, promote_options="permissive"))
    builder = DelegatingBlockBuilder()
    builder.add_batch(_own_object_ndarrays(partition_fn(df.to_pandas())))
    out = BlockAccessor.for_block(builder.build()).to_arrow()
    return out if out_schema is None else _conform(out, out_schema)


def _conform(b: pa.Table, schema: pa.Schema) -> pa.Table:
    if b.num_rows == 0 or b.num_columns == 0:
        return schema.empty_table()
    return b.select(schema.names).cast(schema)


def conform_blocks(ds: Dataset, schema: pa.Schema) -> Dataset:
    """Coerce every block to ``schema``. Ray's pandas ``map_groups``
    can emit zero-column empty blocks (PandasBlockSchema(names=[]))
    whose unified schema then types columns as null — which poisons
    schema-sensitive consumers (pyarrow Table.join rejects null-typed
    non-key fields). Cheap: casts are per-block metadata ops."""
    return ds.map_batches(lambda b: _conform(b, schema), batch_format="pyarrow")


def salted_groupby_count(ds: Dataset, key: str, salts: int = 16) -> Dataset:
    """Explicit two-phase (key, salt) -> key count aggregation.

    Phase 1 groups on (key, salt % S) so a hot key's rows split over S
    reducers; phase 2 groups the S partial rows per key. Returns
    ``key, cnt``."""

    def add_salt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        salt = (np.arange(n, dtype=np.int64) % salts).astype(np.int32)
        return batch.select([key]).append_column("_salt", pa.array(salt))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")
    phase1 = salted.groupby([key, "_salt"]).aggregate(Count(alias_name="_c"))
    return phase1.groupby(key).aggregate(Sum("_c", alias_name="cnt"))


def topk(
    ds: Dataset,
    col: str | Sequence[str],
    k: int,
    descending: bool | Sequence[bool] = True,
) -> Dataset:
    """Top-k by column(s) (A4): per-block prune to the local top-k
    (pyarrow sort_indices + take), then a final sort+limit over the
    ≤ k×blocks surviving rows — no full all-to-all sort of the input.
    Exact whenever the sort key is a total order over the output
    columns (ties beyond the sort key may pick either tied row, same
    as SQL LIMIT)."""
    cols = [col] if isinstance(col, str) else list(col)
    descs = [descending] * len(cols) if isinstance(descending, bool) else list(descending)
    order = [(c, "descending" if d else "ascending") for c, d in zip(cols, descs)]

    def prune(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        import pyarrow.compute as pc

        return b.take(pc.sort_indices(b, sort_keys=order)[:k])

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return pruned.sort(cols, descending=descs).limit(k)


def sampled_key_histogram(ds: Dataset, key: str, fraction: float = 0.001, seed: int = 7):
    """Driver-side skew probe (SURVEY.md §4): sample a fraction of the
    dataset, return the key histogram of the sample as pandas. Used to
    pick the salt count S for explicit salting: S ≈ ceil(max_key_share
    * ideal_reducers). The sample is small by construction — this is
    the one sanctioned driver-side materialization."""
    samp = ds.random_sample(fraction, seed=seed)
    hist = salted_groupby_count(samp, key, salts=4).to_pandas()
    return hist.sort_values("cnt", ascending=False).reset_index(drop=True)


def choose_salts(hist, total_rows_sampled: int, target_reducers: int = 64, cap: int = 256) -> int:
    """Salt count from a sampled histogram: enough sub-keys that the
    hottest key spreads across reducers instead of serializing one."""
    if len(hist) == 0 or total_rows_sampled == 0:
        return 1
    top_share = float(hist.cnt.iloc[0]) / max(1, total_rows_sampled)
    import math

    return max(1, min(cap, math.ceil(top_share * target_reducers * 4)))
