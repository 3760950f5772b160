"""Relational joins, and the one rule that picks between them.

``lookup`` is the equi-join for a probe side against a lookup set: a
semi or anti filter, a membership flag, or a left/inner join against
a build side that is unique on the key. It materializes the build
side once, counts its distinct non-null keys and routes once:

    distinct build keys <= BROADCAST_MAX_KEYS  ->  broadcast
    otherwise                                  ->  hash_join

- Broadcast: the sorted keys (and the ``take`` columns) go to the
  object store with one ``ray.put``; every probe batch finds its rows
  with one vectorized searchsorted (``_positions``). No shuffle, and
  the probe side keeps its row order.
- Partition: ``hash_join`` co-partitions both sides; the driver never
  sees the keys. A semi join first drops probe rows that miss a Bloom
  filter of the build keys, so only (probable) matches shuffle.

Null keys match nothing on either route. Both routes return the same
rows with the same types; only the row order differs.

The legs, also used directly:

- ``hash_join``: partitioned hash join for two large sides: add
  ``bucket = hash(key) % B`` to both, range-partition the union on
  the bucket (whole buckets per partition) and run an Arrow-native join
  per partition (int64-exact; pandas merges cast null-filled int
  columns to float64 and corrupt 62-bit ids). Keys are hashable ints/strings;
  hot keys should be salted (``salted_hash_join``). The union of
  tagged sides is the "Joins over UNION ALL" shape (SIGMOD 2018).
- ``broadcast_lookup``: map-side join against a small Arrow table the
  caller already holds (dimension tables).
- ``semi_filter``: semi/anti filter against a key array the caller
  already holds.
- Bloom filters: a constant-memory broadcast semi PREFILTER for key
  sets too large to broadcast exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.dataset import MaterializedDataset

# The one route threshold: distinct build keys at or below it are
# broadcast (~32 MB of int64). Read at call time, so tests can pin it.
BROADCAST_MAX_KEYS = 4_000_000

_HOWS = ("semi", "anti", "flag", "left", "inner")


def lookup(
    probe: Dataset,
    build: Dataset,
    key: str,
    build_key: str | None = None,
    how: str = "semi",
    take: Sequence[str] = (),
    flag_name: str | None = None,
    max_broadcast: int | None = None,
) -> Dataset:
    """Join ``probe`` against ``build`` on ``probe[key] ==
    build[build_key or key]`` (see the module docstring for the route).

    - ``semi`` / ``anti``: keep the probe rows with / without a match.
    - ``flag``: keep every probe row and append bool ``flag_name``.
    - ``left`` / ``inner``: append ``take`` from the matching build row
      (nulls, or drop the row, when there is none). The build side
      must be unique on the key; the broadcast route raises otherwise.

    semi, anti and flag reduce ``build`` to its distinct keys: per
    block first, and with a distributed distinct only when the block
    distincts together exceed the cap. ``max_broadcast`` overrides
    ``BROADCAST_MAX_KEYS`` for one call."""
    from engine.shuffle import keyed_partition_map

    if how not in _HOWS:
        raise ValueError(f"unknown how {how!r}")
    if (how == "flag") != (flag_name is not None):
        raise ValueError("flag_name goes with how='flag'")
    take = list(take)
    if take and how not in ("left", "inner"):
        raise ValueError("take goes with how='left' or how='inner'")
    cap = BROADCAST_MAX_KEYS if max_broadcast is None else max_broadcast
    bkey = build_key or key
    keys_only = how in ("semi", "anti", "flag")

    def side_rows(b: pa.Table) -> pa.Table:
        b = b.select([bkey, *take]).rename_columns([key, *take])
        b = b.filter(pc.is_valid(b[key]))
        return pa.table({key: pc.unique(b[key])}) if keys_only else b

    side = build.map_batches(side_rows, batch_format="pyarrow").materialize()
    n = side.count()
    if keys_only and n > cap:
        side = keyed_partition_map(
            side, [key], lambda df: df.drop_duplicates([key]), 16,
            out_schema=side.schema().base_schema,
        ).materialize()
        n = side.count()

    if n <= cap:
        t = _gather(side, build, key, bkey, take)
        if how in ("semi", "anti"):
            return semi_filter(probe, t[key].to_numpy(zero_copy_only=False), key, how == "anti")
        if how == "flag":
            ref = ray.put(np.unique(t[key].to_numpy(zero_copy_only=False)))

            def flag(batch: pa.Table) -> pa.Table:
                _, hit = _positions(ray.get(ref), batch[key])
                return batch.append_column(flag_name, pa.array(hit))

            return probe.map_batches(flag, batch_format="pyarrow")
        if len(pc.unique(t[key])) < t.num_rows:
            raise ValueError(f"lookup: build side is not unique on {bkey!r}")
        return broadcast_lookup(probe, t, key, key, take, how)

    if how in ("left", "inner"):
        return hash_join(probe, side, key, how=how)
    if how == "semi":
        m_bits = bloom_bits_size(n)
        probe = bloom_semi_filter(probe, bloom_build(side, key, m_bits), key, m_bits)
        return hash_join(probe, side, key, how="inner")
    marked = side.map_batches(
        lambda b: b.append_column("_hit", pa.array(np.ones(b.num_rows, dtype=bool))),
        batch_format="pyarrow",
    )

    def finish(b: pa.Table) -> pa.Table:
        hit = pc.fill_null(b["_hit"], False)
        b = b.drop_columns(["_hit"])
        return b.append_column(flag_name, hit) if how == "flag" else b.filter(pc.invert(hit))

    return hash_join(probe, marked, key, how="left").map_batches(finish, batch_format="pyarrow")


def _gather(side: Dataset, build: Dataset, key: str, bkey: str, take: list) -> pa.Table:
    """The materialized build side as one driver table. A side with no
    rows has no schema, so its column types come from ``build``."""
    parts = [
        b for b in side.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows
    ]
    if parts:
        return pa.concat_tables(parts, promote_options="default")
    s = build.schema()
    types = dict(zip(s.names, s.types)) if s is not None else {}
    return pa.table(
        {c: pa.array([], types.get(b, pa.null())) for c, b in zip([key, *take], [bkey, *take])}
    )


def _positions(sorted_keys: np.ndarray, col) -> tuple[np.ndarray, np.ndarray]:
    """Searchsorted probe of a key column against sorted keys: the
    position of each value and whether it is there. Null values (and
    any value, when there are no keys) never hit."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    pos = np.zeros(len(col), dtype=np.int64)
    hit = np.zeros(len(col), dtype=bool)
    if len(sorted_keys) == 0 or len(col) == 0:
        return pos, hit
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    kv = col.drop_null().to_numpy(zero_copy_only=False)
    p = np.clip(np.searchsorted(sorted_keys, kv), 0, len(sorted_keys) - 1)
    pos[valid] = p
    hit[valid] = sorted_keys[p] == kv
    return pos, hit


def broadcast_lookup(
    ds: Dataset,
    small: pa.Table,
    left_key: str,
    right_key: str,
    take_cols: Sequence[str],
    how: str = "left",
) -> Dataset:
    """Map-side join: for each row of ds, attach ``take_cols`` from
    the broadcast ``small`` table matched on key equality. 'inner'
    drops unmatched rows; 'left' leaves nulls."""
    small = small.filter(pc.is_valid(small[right_key])).sort_by(right_key).combine_chunks()
    ref = ray.put((small[right_key].to_numpy(zero_copy_only=False), small.select(list(take_cols))))

    def fn(batch: pa.Table) -> pa.Table:
        ks, vals = ray.get(ref)
        # Single-chunk the input before appending single-chunk
        # lookup columns: pyarrow 16.1's variadic kernels
        # (pc.coalesce at least) ZIP CHUNKS PAIRWISE when two
        # ChunkedArray args have different chunk layouts, silently
        # misaligning rows (reproduced: a 4-chunk key column + a
        # 1-chunk appended column made downstream coalesce read
        # other rows' values). Aligning here fixes every consumer.
        batch = batch.combine_chunks()
        pos, hit = _positions(ks, batch[left_key])
        if how == "inner":
            batch, pos, hit = batch.filter(pa.array(hit)), pos[hit], hit[hit]
        idx = pa.array(pos, pa.int64(), mask=~hit)
        for c in take_cols:
            batch = batch.append_column(c, vals[c].take(idx))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


def hash_join(
    left: Dataset,
    right: Dataset,
    key: str,
    num_buckets: int = 16,
    how: str = "inner",
) -> Dataset:
    """Partitioned hash join of two Datasets on an equality key.

    Tags each side, buckets rows by ``hash(key) % B``, range-partitions
    the union on the bucket with fixed boundaries (whole buckets per
    partition; no boundary sampling), and merges each partition with an
    Arrow-native join. One shuffle total. There are P = min(B, input
    blocks) partitions (at least 2), and one merge call holds ~1/P of
    the union: B alone bounds it only when the two inputs together
    have at least B blocks, so to fit a worker heap raise both (for
    example ``repartition`` the larger side). Every output block
    carries the declared schema: left columns, then right non-key
    columns.

    Width note: the union requires both sides to carry the UNION
    schema, so each side ships all-null fixed-width padding for the
    other side's columns (~2x shuffle width when both payloads are
    comparable). Acceptable for the narrow join payloads here; for
    wide payloads, project each side to (key, needed cols) before the
    join — or broadcast_lookup when one side fits in the object
    store, which moves no padding at all."""

    num_buckets = max(num_buckets, 2)  # the fixed boundaries need two partitions
    l_schema = left.schema()
    r_schema = right.schema()
    for side, s in (("left", l_schema), ("right", r_schema)):
        if s is None:
            raise ValueError(
                f"hash_join: the {side} side has no schema (an empty Dataset "
                "with no blocks); give it typed columns first"
            )
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    overlap = (set(l_cols) & set(r_cols)) - {key}
    if overlap:
        raise ValueError(f"non-key column overlap not supported: {overlap}")
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    def tag(side: str, missing: dict):
        def fn(batch: pa.Table) -> pa.Table:
            from engine.shuffle import deterministic_key_hash

            # Shared well-mixed hash: the earlier raw Knuth multiply is
            # the identity mod power-of-two bucket counts (2654435761 %
            # 16 == 1), collapsing stride-aligned keys into one bucket.
            hv = deterministic_key_hash(batch, [key])
            b = np.abs(hv % np.int64(num_buckets)).astype(np.int32)
            batch = batch.append_column("_bucket", pa.array(b)).append_column(
                "_side", pa.array(np.full(batch.num_rows, side))
            )
            # Align schemas for union: null-fill the other side's columns.
            for c, t in missing.items():
                batch = batch.append_column(c, pa.nulls(batch.num_rows, t))
            return batch

        return fn

    order = [key] + [c for c in l_cols if c != key] + [c for c in r_cols if c != key] + ["_bucket", "_side"]
    lt = left.map_batches(tag("l", {c: r_types[c] for c in r_cols if c != key}), batch_format="pyarrow").select_columns(order)
    rt = right.map_batches(tag("r", {c: l_types[c] for c in l_cols if c != key}), batch_format="pyarrow").select_columns(order)
    # One all-null row per bucket, on neither side: every partition then
    # has a row, so merge runs on it (Ray passes an empty partition on
    # as a zero-column block without calling the function).
    pad = pa.table(
        {
            **{c: pa.nulls(num_buckets, l_types.get(c, r_types.get(c))) for c in order[:-2]},
            "_bucket": pa.array(np.arange(num_buckets, dtype=np.int32)),
            "_side": pa.array(["x"] * num_buckets),
        }
    )
    # As many partitions as input blocks, as Ray's own sort picks (more
    # would shrink the map side's sub-blocks below Ray's 100 KB inline
    # limit, parking them in the driver's heap), at most one per bucket;
    # fixed boundaries, so no sampling pass.
    n_in = _input_blocks(left, num_buckets) + _input_blocks(right, num_buckets)
    parts = max(2, min(num_buckets, n_in))  # no boundaries would mean sampling
    both = lt.union(rt, ray.data.from_arrow(pad)).sort(
        "_bucket", boundaries=[j * num_buckets // parts for j in range(1, parts)]
    )

    arrow_how = {"inner": "inner", "left": "left outer", "right": "right outer", "outer": "full outer"}[how]

    l_cast = pa.schema([(c, l_types[c]) for c in l_cols])
    r_cast = pa.schema([(c, r_types[c]) for c in r_cols])

    def merge(group: pa.Table) -> pa.Table:
        # Arrow-native join: a pandas merge here silently casts the
        # null-filled union's int64 columns to float64, corrupting
        # values above 2^53 (observed on 62-bit cell ids).
        # The casts pin the declared schema: Ray's pandas<->arrow block
        # conversions can type an all-null/empty column as `null`,
        # which acero joins reject ("Data type null is not supported").
        l = group.filter(pc.equal(group["_side"], "l")).select(l_cols).cast(l_cast)
        r = group.filter(pc.equal(group["_side"], "r")).select(r_cols).cast(r_cast)
        out = l.join(r, keys=key, join_type=arrow_how)
        return out.select(l_cols + [c for c in r_cols if c != key])

    return both.map_batches(merge, batch_size=None, batch_format="pyarrow")


def _input_blocks(ds: Dataset, default: int) -> int:
    """The block count ``ds`` will produce: public for a materialized
    Dataset; for a lazy one, the plan's estimate (a private Ray read,
    so a Ray that renames it yields ``default``, as does an unknown
    estimate)."""
    if isinstance(ds, MaterializedDataset):
        return ds.num_blocks()
    try:
        return ds._plan.initial_num_blocks() or default
    except AttributeError:
        return default


def semi_filter(ds: Dataset, keys: np.ndarray, key: str, anti: bool = False) -> Dataset:
    """Semi/anti join: broadcast the key set, filter inside map_batches."""
    ref = ray.put(np.sort(np.asarray(keys)))

    def fn(batch: pa.Table) -> pa.Table:
        _, hit = _positions(ray.get(ref), batch[key])
        return batch.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(fn, batch_format="pyarrow")


# --- Bloom-filter semi PREFILTER (huge build sides) --------------------
#
# When the build-side key set is too large to broadcast exactly
# (semi_filter) but the probe side is vastly larger (the 100 TB case:
# filtering a corpus down to LSH candidate endpoints), an m-bit Bloom
# filter gives a constant-memory broadcast with NO false negatives:
# every true match survives; a bounded false-positive fraction of
# non-matches rides along and is dropped by the exact downstream join.
# NEVER use for anti joins — false positives would drop true anti rows.


def _bloom_seeds(k_hashes: int) -> np.ndarray:
    # Derived odd constants (splitmix64 of 1..k) — any distinct odd
    # values decorrelate the k index hashes.
    from engine.sketch import _splitmix64

    return _splitmix64(np.arange(1, k_hashes + 1, dtype=np.uint64)) | np.uint64(1)


def bloom_bits_size(n_keys_hint: int) -> int:
    """m_bits sized at ~16 bits/key (k=5 → ~1% FP), clamped to
    [2^20, 2^27] (128 KiB – 16 MiB of broadcast words)."""
    m = 1 << 20
    while m < 16 * max(n_keys_hint, 1) and m < (1 << 27):
        m <<= 1
    return m


def bloom_build(
    ds: Dataset, key: str, m_bits: int, k_hashes: int = 5
) -> np.ndarray:
    """Distributed Bloom bitset over a key column: per-block partial
    word arrays (uint64), tree-merged by bitwise OR inside map_batches
    (associative/commutative — register-exact like the HLL/CMS
    merges), final OR on the driver over the handful of surviving
    rows. Broadcast cost is m_bits/8 bytes regardless of key count."""
    from engine.sketch import _hash_column, _splitmix64

    n_words = m_bits // 64
    seeds = _bloom_seeds(k_hashes)

    def partial(b: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        base = _hash_column(b[key])
        for s in seeds:
            idx = _splitmix64(base ^ s) % np.uint64(m_bits)
            np.bitwise_or.at(
                words, (idx >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (idx & np.uint64(63)),
            )
        return pa.table(
            {"words": pa.FixedSizeListArray.from_arrays(pa.array(words), n_words)}
        )

    def merge_rows(b: pa.Table) -> pa.Table:
        arr = (
            b["words"].combine_chunks().values.to_numpy(zero_copy_only=False)
            .reshape(-1, n_words)
        )
        return pa.table(
            {
                "words": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.bitwise_or.reduce(arr, axis=0)), n_words
                )
            }
        )

    merged = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        merge_rows, batch_format="pyarrow", batch_size=64
    )
    out = np.zeros(n_words, dtype=np.uint64)
    for b in merged.iter_batches(batch_format="pyarrow"):
        vals = b["words"].combine_chunks().values.to_numpy(zero_copy_only=False)
        out |= np.bitwise_or.reduce(vals.reshape(-1, n_words), axis=0)
    return out


def bloom_contains(
    words: np.ndarray, col, m_bits: int, k_hashes: int = 5
) -> np.ndarray:
    """Vectorized membership test (bool per value; no false negatives)."""
    from engine.sketch import _hash_column, _splitmix64

    base = _hash_column(col)
    hit = np.ones(len(base), dtype=bool)
    for s in _bloom_seeds(k_hashes):
        idx = _splitmix64(base ^ s) % np.uint64(m_bits)
        bit = words[(idx >> np.uint64(6)).astype(np.int64)] >> (idx & np.uint64(63))
        hit &= (bit & np.uint64(1)).astype(bool)
    return hit


def bloom_semi_filter(
    ds: Dataset, words: np.ndarray, key: str, m_bits: int, k_hashes: int = 5
) -> Dataset:
    """Filter ``ds`` to rows whose key is (probably) in the Bloom set:
    the bitset broadcasts once (ray.put), the test runs where the
    blocks live. Keeps ALL true matches plus ~FP-rate impostors — pair
    with an exact join/verify downstream when exactness is required."""
    ref = ray.put(words)

    def fn(batch: pa.Table) -> pa.Table:
        w = ray.get(ref)
        return batch.filter(pa.array(bloom_contains(w, batch[key], m_bits, k_hashes)))

    return ds.map_batches(fn, batch_format="pyarrow")


def salted_hash_join(
    left: Dataset,
    right: Dataset,
    key: str,
    hot_keys,
    salts: int = 8,
    num_buckets: int = 16,
    how: str = "inner",
) -> Dataset:
    """Skew-safe bucketed equi-join (the SURVEY-§4 'salt hot keys'
    promise for JOINS — ``grouped_count_sums(salts=...)`` is the
    aggregate analogue): rows of the declared hot keys are salted so
    one Zipfian key cannot flood a single join bucket.

    Shape: the PROBE (left) side's hot rows get ``salt = arrival
    index % S``; the BUILD (right) side REPLICATES its hot-key rows
    once per salt; both sides then join on the packed composite
    ``key * S + salt`` through the ordinary bucketed hash_join —
    each left row meets each right row exactly once, so results are
    value-identical to the unsalted join (pytest + the excluded-gate
    SQL mirror, which is the PLAIN join — salting must be
    semantically invisible).

    Bounds and limits (all raise):
    - int64 keys with |key| * salts < 2^62 (packing);
    - ``how`` in {"inner", "left"} — right/full outer would emit one
      unmatched copy PER SALT for a hot build key with no probe row;
    - ``hot_keys`` is caller-declared (sample with
      shuffle.sampled_key_histogram); replication cost is
      |hot build rows| x S — salt only what skews.
    """
    if how not in ("inner", "left"):
        raise ValueError("salted_hash_join: only inner/left are exact")
    hot = np.sort(np.asarray(list(hot_keys), dtype=np.int64))
    S = np.int64(salts)

    def _pack(keys: np.ndarray, salt: np.ndarray) -> np.ndarray:
        if len(keys) and np.abs(keys).max() >= (1 << 62) // salts:
            raise ValueError("salted_hash_join: key range too large to pack")
        return keys * S + salt

    def salt_left(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(hot, k), 0, max(len(hot) - 1, 0))
        is_hot = hot[pos] == k if len(hot) else np.zeros(len(k), bool)
        salt = np.where(is_hot, np.arange(len(k), dtype=np.int64) % S, 0)
        return b.set_column(
            b.schema.get_field_index(key), key, pa.array(_pack(k, salt))
        )

    def salt_right(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(hot, k), 0, max(len(hot) - 1, 0))
        is_hot = hot[pos] == k if len(hot) else np.zeros(len(k), bool)
        reps = np.where(is_hot, int(S), 1).astype(np.int64)
        idx = np.repeat(np.arange(len(k), dtype=np.int64), reps)
        out = b.take(pa.array(idx))
        ends = np.cumsum(reps)
        local = np.arange(len(idx), dtype=np.int64) - np.repeat(ends - reps, reps)
        return out.set_column(
            out.schema.get_field_index(key),
            key,
            pa.array(_pack(k[idx], local)),
        )

    joined = hash_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(salt_right, batch_format="pyarrow"),
        key=key,
        num_buckets=num_buckets,
        how=how,
    )

    def unpack(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.set_column(
            b.schema.get_field_index(key), key, pa.array(k // S)
        )

    return joined.map_batches(unpack, batch_format="pyarrow")


def sampled_hot_keys(
    ds: Dataset, key: str, share_threshold: float = 0.05, fraction: float = 0.001
):
    """Auto-detect join hot keys for ``salted_hash_join`` with the
    SURVEY-§4 skew probe (shuffle.sampled_key_histogram): every key
    whose SAMPLED share exceeds ``share_threshold`` is declared hot.
    A false positive only costs |build rows| extra replicas for that
    key (results stay exact — salting is semantically invisible); a
    false negative degrades to the plain join's behavior for that
    key. The probe re-executes ``ds``'s lineage for the sample — use
    on cheap-lineage inputs (direct reads), pass explicit hot keys
    inside expensive pipelines (the grouped_count_sums "auto"
    contract)."""
    from engine.shuffle import sampled_key_histogram

    hist = sampled_key_histogram(ds, key, fraction=fraction)
    total = int(hist.cnt.sum()) if len(hist) else 0
    if total == 0:
        return []
    hot = hist.loc[hist.cnt / total > share_threshold, key]
    return [int(k) for k in hot]
