"""HyperLogLog approximate-distinct sketch (SURVEY.md §2.9).

A mergeable cardinality sketch in the combiner idiom every aggregate
here uses: per-batch partial = one 2^p-byte register array (rho-max
per bucket, fully vectorized), merge = elementwise max (associative,
commutative — HLL(A ∪ B) is register-exact, not approximate, which the
tests assert). The shuffle therefore moves 4 KB per input block
regardless of data size; at 100 TB the sketch costs one narrow column
scan and a metadata-sized exchange, versus a full key shuffle for the
exact distinct (engine.queries.q_distinct_flags).

Hashing: splitmix64 finalizer (public-domain constants) over int64
keys, or over the repo's vectorized FNV-1a for strings — deterministic
across processes and library versions (the polars-hash lesson from the
exact-dedup digest, ADVICE r2).

Driver-gate status: approximate by design, so excluded from the
50-query oracle window like ann_ivf; accuracy is pytest-bounded
against exact COUNT(DISTINCT) at multiple scales.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

P_DEFAULT = 12  # 4096 registers, sigma ~= 1.04/sqrt(4096) ~= 1.6%


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 -> well-mixed uint64."""
    z = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(1)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _hash_column(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    is_str = pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
    if col.null_count and (is_str or pa.types.is_integer(col.type)):
        # Nulls hash as a fixed value: left in, string dictionary
        # indices and integer columns would convert to float.
        col = col.fill_null("" if is_str else 0)
    if is_str:
        from engine.shuffle import _fnv1a_bytes_vectorized

        enc = col.dictionary_encode()
        uh = _fnv1a_bytes_vectorized(enc.dictionary).astype(np.uint64)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        base = uh[idx]
    else:
        base = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    return _splitmix64(base)


def _floor_log2_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized floor(log2(x)) for x > 0 (binary search over shifts —
    float log2 is unsafe above 2^53)."""
    r = np.zeros(x.shape, dtype=np.int64)
    x = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = x >= (np.uint64(1) << np.uint64(s))
        r[m] += s
        x[m] >>= np.uint64(s)
    return r


def _rhos(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, rho) per hash: bucket = top p bits; rho = 1-based
    position of the first set bit in the remaining 64-p bits."""
    bucket = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h << np.uint64(p)  # remaining bits, left-aligned in 64
    rho = np.full(h.shape, 64 - p + 1, dtype=np.uint8)
    nz = w != 0
    # leading zeros of w (64-bit frame) = 63 - floor_log2(w)
    rho[nz] = (np.int64(63) - _floor_log2_u64(w[nz]) + 1).astype(np.uint8)
    np.minimum(rho, 64 - p + 1, out=rho)
    return bucket, rho


def _batch_registers(col, p: int) -> np.ndarray:
    h = _hash_column(col)
    bucket, rho = _rhos(h, p)
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, bucket, rho)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard bias-corrected HLL estimator (small-range linear
    counting below 2.5m with empty buckets; 64-bit hashes need no
    large-range correction)."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if e <= 2.5 * m and zeros > 0:
        return m * np.log(m / zeros)
    return float(e)


def hll_sketch(ds: Dataset, col: str, p: int = P_DEFAULT) -> np.ndarray:
    """Distributed HLL registers for one column: per-block partial
    register rows (4 KB each), tree-merged inside map_batches, final
    elementwise max over the handful of surviving rows on the driver
    (bounded by the post-merge block count, never by data size)."""

    def partial(b: pa.Table) -> pa.Table:
        regs = _batch_registers(b[col], p)
        return pa.table({"regs": pa.FixedSizeListArray.from_arrays(pa.array(regs), 1 << p)})

    def merge_rows(b: pa.Table) -> pa.Table:
        arr = np.frombuffer(
            b["regs"].combine_chunks().values.to_numpy(zero_copy_only=False).tobytes(),
            dtype=np.uint8,
        ).reshape(-1, 1 << p)
        regs = arr.max(axis=0)
        return pa.table({"regs": pa.FixedSizeListArray.from_arrays(pa.array(regs), 1 << p)})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # One merge round collapses each consumer batch to a single row;
    # the driver folds what remains (<= blocks/batch_size rows).
    merged = partials.map_batches(merge_rows, batch_format="pyarrow", batch_size=256)
    out = np.zeros(1 << p, dtype=np.uint8)
    for b in merged.iter_batches(batch_format="pyarrow"):
        vals = b["regs"].combine_chunks().values.to_numpy(zero_copy_only=False)
        out = np.maximum(out, vals.reshape(-1, 1 << p).max(axis=0))
    return out


def grouped_hll(
    ds: Dataset, key: str, col: str, p: int = P_DEFAULT, num_partitions: int = 16
) -> Dataset:
    """Per-group approximate distinct: per-batch (key, registers)
    partials, one keyed-partition shuffle of register rows (4 KB x
    groups-per-batch, not data rows), elementwise-max merge per group,
    estimator applied once per output row. Columns: key, approx_nd."""
    import pandas as pd

    from engine.shuffle import keyed_partition_map

    width = 1 << p

    def partial(b: pa.Table) -> pa.Table:
        h = _hash_column(b[col])
        bucket, rho = _rhos(h, p)
        kc = b[key]
        if isinstance(kc, pa.ChunkedArray):
            kc = kc.combine_chunks()
        enc = kc.dictionary_encode()
        gidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ngroups = len(enc.dictionary)
        regs = np.zeros((ngroups, width), dtype=np.uint8)
        np.maximum.at(regs, (gidx, bucket), rho)
        return pa.table(
            {
                key: enc.dictionary,
                "regs": pa.FixedSizeListArray.from_arrays(
                    pa.array(regs.reshape(-1)), width
                ),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(key, sort=False):
            regs = np.maximum.reduce(
                [np.asarray(r, dtype=np.uint8) for r in g["regs"]]
            )
            rows.append((k, int(round(hll_estimate(regs)))))
        return pd.DataFrame(rows, columns=[key, "approx_nd"]).astype(
            {"approx_nd": np.int64}
        )

    s = partials.schema()
    kt = dict(zip(s.names, s.types))[key]
    schema = pa.schema([(key, kt), ("approx_nd", pa.int64())])
    return keyed_partition_map(
        partials, [key], merge_partition, num_partitions, out_schema=schema
    )


def q_approx_distinct_users(sf_dir: str):
    """Approximate distinct user_id per event_type + a global row
    (event_type='ALL'), both from one pass over the pruned columns."""
    import pandas as pd

    from engine.queries import _read

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    per_group = grouped_hll(ds, "event_type", "user_id").to_pandas()
    global_regs = hll_sketch(
        _read(sf_dir, "events", ["user_id"]), "user_id"
    )
    allrow = pd.DataFrame(
        {"event_type": ["ALL"], "approx_nd": [int(round(hll_estimate(global_regs)))]}
    )
    return (
        pd.concat([per_group, allrow], ignore_index=True)
        .sort_values("event_type")
        .reset_index(drop=True)
    )
