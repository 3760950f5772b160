"""Sorted-neighborhood-blocking soak (X67) at corpus scale: N docs
whose blocking keys are a seeded PERMUTATION of 0..N-1, so the global
rank of doc i is exactly P[i] and the full expected pair set is
closed-form: for every rank r and gap g <= w, (invP[r], invP[r+g]).

Asserts, exactly:
- pair count == w*N - w*(w+1)/2;
- an order-independent uint64 checksum of (doc_a, doc_b, gap) over
  ALL pairs equals the closed-form checksum computed from invP
  (vectorized, no pair materialization on the oracle side);
- a contiguous 10k-rank slice verified pair-for-pair.

Usage: python -m tools.snm_soak [n_docs] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

W = 5
C1 = np.uint64(0x9E3779B97F4A7C15)
C2 = np.uint64(0xC2B2AE3D27D4EB4F)
C3 = np.uint64(0x165667B19E3779F9)


def _checksum(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> int:
    with np.errstate(over="ignore"):
        h = (
            a.astype(np.uint64) * C1
            + b.astype(np.uint64) * C2
            + g.astype(np.uint64) * C3
        )
        h ^= h >> np.uint64(29)
        return int(h.sum(dtype=np.uint64))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False,
            object_store_memory=int(cap_gb * (1 << 30)),
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa
    import ray.data as rd

    from engine.snm import snm_pairs

    rng = np.random.RandomState(42)
    perm = rng.permutation(n).astype(np.int64)  # key of doc i
    inv = np.empty(n, np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)  # doc at rank r

    # closed-form checksum over all (invP[r], invP[r+g], g)
    t0 = time.time()
    exp_cnt = 0
    exp_sum = 0
    for g in range(1, W + 1):
        a = inv[: n - g]
        b = inv[g:]
        exp_cnt += len(a)
        exp_sum = (exp_sum + _checksum(a, b, np.full(len(a), g, np.int64))) % (
            1 << 64
        )
    oracle_s = time.time() - t0

    ds = rd.from_arrow(
        pa.table(
            {"id": np.arange(n, dtype=np.int64), "k": perm}
        )
    ).repartition(128).materialize()

    t1 = time.time()
    out = snm_pairs(
        ds, id_col="id", key_col="k", window=W, num_partitions=64
    ).materialize()
    # reduce to (count, checksum) distributed — pairs never collect
    def red(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = b["gap"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cnt": pa.array([len(a)], pa.int64()),
                "ck": pa.array(
                    [_checksum(a, bb, g) % (1 << 63)], pa.int64()
                ),
                "ck_hi": pa.array([_checksum(a, bb, g) >> 63], pa.int64()),
            }
        )

    parts = out.map_batches(red, batch_format="pyarrow").to_pandas()
    got_cnt = int(parts.cnt.sum())
    got_sum = int(
        sum(int(c) + (int(h) << 63) for c, h in zip(parts.ck, parts.ck_hi))
        % (1 << 64)
    )
    join_s = time.time() - t1

    assert got_cnt == exp_cnt == W * n - W * (W + 1) // 2, (got_cnt, exp_cnt)
    assert got_sum == exp_sum, (got_sum, exp_sum)

    # pair-for-pair verify of a contiguous rank slice
    r0 = n // 3
    slice_ids = np.sort(inv[r0 : r0 + 10_000])

    def in_slice(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(slice_ids, a)
        ok = (pos < len(slice_ids)) & (slice_ids[np.minimum(pos, len(slice_ids) - 1)] == a)
        return b.filter(pa.array(ok))

    sl = out.map_batches(in_slice, batch_format="pyarrow").to_pandas()
    exp_pairs = set()
    for g in range(1, W + 1):
        for r in range(r0, r0 + 10_000):
            if r + g < n:
                exp_pairs.add((int(inv[r]), int(inv[r + g]), g))
    got_pairs = set(zip(sl.doc_a, sl.doc_b, sl.gap))
    assert got_pairs == exp_pairs

    print(
        json.dumps(
            {
                "metric": "snm_soak",
                "n_docs": n,
                "window": W,
                "n_pairs": got_cnt,
                "checksum_match": True,
                "slice_exact": True,
                "oracle_s": round(oracle_s, 2),
                "join_s": round(join_s, 2),
                "pairs_per_s": round(got_cnt / join_s),
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
