"""Sorted-export soak (X72) at corpus scale on a HOSTILE distribution:
N Zipf-skewed keys (unique via packed tiebreak). Asserts, exactly:

- read-back is strictly globally sorted and its key multiset equals
  the input (checked via order-independent checksum + count + the
  first/last 100k verified against np.sort of a driver copy);
- balance: with SAMPLED splits no partition exceeds 3x fair share,
  while the equal-width partitioner on the same data puts > 90% of
  rows in ONE range (the hot-spot the sampling exists to avoid) —
  both numbers reported;
- manifest ranges are disjoint and file order is key order.

Usage: python -m tools.sortout_soak [n_rows] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000_000
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
    import pyarrow.parquet as pq
    import ray.data as rd

    from engine.sortout import ranked_rows, sampled_splits, sorted_export

    rng = np.random.RandomState(42)
    z = rng.zipf(1.4, n).astype(np.int64).clip(max=(1 << 29) - 1)
    key = z * (np.int64(1) << np.int64(33)) + np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"key": key})).repartition(128).materialize()

    # balance A/B on the same data
    splits = sampled_splits(ds, "key", 64)
    v = np.sort(key)
    counts = np.diff(np.r_[0, np.searchsorted(v, splits, side="right"), n])
    lo, hi = int(v[0]), int(v[-1])
    width = max(1, -(-(hi - lo + 1) // 64))
    ew_max = int(np.bincount((v - lo) // width, minlength=64).max())
    assert counts.max() <= 3 * n / 64, counts.max()
    assert ew_max > 0.9 * n, ew_max

    out_dir = "/tmp/geokit_sortout_soak"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    man = sorted_export(ds, col="key", out_dir=out_dir, num_partitions=64)
    export_s = time.time() - t0

    assert int(man.rows.sum()) == n
    vmax, vmin = man.vmax.to_numpy(), man.vmin.to_numpy()
    assert (vmax[:-1] <= vmin[1:]).all()

    # read back: strict order + multiset checksum + head/tail exact
    t1 = time.time()
    ck = np.uint64(0)
    prev = None
    total = 0
    firsts, lasts = [], []
    for name in man.file:
        a = pq.read_table(f"{out_dir}/{name}", columns=["key"])["key"].to_numpy().astype(np.int64)
        assert (np.diff(a) > 0).all()
        if prev is not None:
            assert a[0] > prev
        prev = int(a[-1])
        total += len(a)
        with np.errstate(over="ignore"):
            h = a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(31)
            ck = (ck + h.sum(dtype=np.uint64)) & np.uint64((1 << 64) - 1)
        if len(firsts) < 100_000:
            firsts.extend(a[: 100_000 - len(firsts)].tolist())
        lasts = (lasts + a[-100_000:].tolist())[-100_000:]
    verify_s = time.time() - t1
    assert total == n
    with np.errstate(over="ignore"):
        h = v.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(31)
        exp_ck = int(h.sum(dtype=np.uint64)) & ((1 << 64) - 1)
    assert int(ck) == exp_ck
    np.testing.assert_array_equal(np.array(firsts), v[:100_000])
    np.testing.assert_array_equal(np.array(lasts), v[-100_000:])

    print(
        json.dumps(
            {
                "metric": "sortout_soak",
                "n_rows": n,
                "n_files": len(man),
                "sampled_max_part_share": round(float(counts.max()) / (n / 64), 2),
                "equal_width_max_part_share_pct": round(100.0 * ew_max / n, 1),
                "order_exact": True,
                "multiset_checksum_match": True,
                "export_s": round(export_s, 2),
                "verify_s": round(verify_s, 2),
                "rows_per_s": round(n / export_s),
                "cap_gb": cap_gb,
            }
        )
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
