"""Skew-salted join A/B at straggler-visible scale: a 5M-row probe
side where ONE key holds 50% of the rows, joined to a 10k-row build
side, through (a) the plain bucketed hash_join — the hot key lands in
one bucket, serializing half the probe rows into a single merge task
— and (b) salted_hash_join with S=16. Asserts value-identity
(aggregated checksums) and reports both walls.

Usage: python -m tools.skewjoin_soak [n_rows] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000_000
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

    import ray.data as rd

    from engine.joins import hash_join, salted_hash_join

    HOT = 42
    rng = np.random.default_rng(5)
    k = np.where(rng.random(n) < 0.5, HOT, rng.integers(0, 10_000, n)).astype(
        np.int64
    )
    lv = np.arange(n, dtype=np.int64)
    left = rd.from_arrow(pa.table({"k": k, "lv": lv})).repartition(64).materialize()
    rk = np.arange(10_000, dtype=np.int64)
    right = (
        rd.from_arrow(pa.table({"k": rk, "rv": rk * 7}))
        .repartition(4)
        .materialize()
    )

    def checksum(ds) -> tuple[int, int]:
        t = ds.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array([b.num_rows], pa.int64()),
                    "s": pa.array(
                        [
                            int(
                                (
                                    b["lv"].to_numpy(zero_copy_only=False)
                                    * 3
                                    + b["rv"].to_numpy(zero_copy_only=False)
                                ).sum()
                            )
                        ],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).to_pandas()
        return int(t.n.sum()), int(t.s.sum())

    t0 = time.time()
    plain = checksum(hash_join(left, right, key="k", num_buckets=16))
    plain_s = round(time.time() - t0, 2)
    t0 = time.time()
    salted = checksum(
        salted_hash_join(left, right, key="k", hot_keys=[HOT], salts=16)
    )
    salted_s = round(time.time() - t0, 2)
    assert plain == salted, (plain, salted)

    out = {
        "metric": "skewjoin_soak",
        "n_left": n,
        "hot_share": 0.5,
        "cap_gb": cap_gb,
        "plain_wall_s": plain_s,
        "salted_wall_s": salted_s,
        "speedup": round(plain_s / salted_s, 2),
        "rows_joined": plain[0],
        "driver_rss_gb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2
        ),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
