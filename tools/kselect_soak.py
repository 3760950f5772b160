"""Exact-global-selection soak (X69) at corpus scale: N int64 values
from an adversarial mixture — one hot duplicate worth ~30% of rows,
a dense uniform band, far outliers at ±10^15 — checked rank-for-rank
against a driver-side np.sort oracle (N*8 bytes, fine to hold once
for verification; the ENGINE path never sorts).

Reports rounds of histogram narrowing actually taken (instrumented
via the public state: ranks resolve when settle() fires) indirectly
through wall time, plus values. Asserts all four DEFAULT_RANKS exact.

Usage: python -m tools.kselect_soak [n_values] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000_000
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

    from engine.kselect import DEFAULT_RANKS, global_kth

    rng = np.random.RandomState(42)
    n_hot = int(n * 0.3)
    n_out = max(1000, n // 10_000)
    n_uni = n - n_hot - n_out
    x = np.concatenate(
        [
            np.full(n_hot, 123_456, np.int64),  # hot duplicate plateau
            rng.randint(0, 1_000_000, n_uni).astype(np.int64),
            rng.choice(
                np.array([-(10**15), 10**15], np.int64), n_out
            ),
        ]
    )
    rng.shuffle(x)

    t0 = time.time()
    s = np.sort(x)
    oracle = {}
    for tag, qn, qd in DEFAULT_RANKS:
        k = max(1, -(-qn * n // qd))
        oracle[tag] = (n, k, int(s[k - 1]))
    del s
    oracle_s = time.time() - t0

    ds = rd.from_arrow(pa.table({"x": x})).repartition(128)
    t1 = time.time()
    got = global_kth(ds, "x").to_pandas().set_index("tag")
    engine_s = time.time() - t1
    for tag, (nn, k, v) in oracle.items():
        row = got.loc[tag]
        assert (int(row.n), int(row.k), int(row.value)) == (nn, k, v), (
            tag,
            (int(row.n), int(row.k), int(row.value)),
            (nn, k, v),
        )

    print(
        json.dumps(
            {
                "metric": "kselect_soak",
                "n_values": n,
                "exact": True,
                "values": {t: oracle[t][2] for t in oracle},
                "engine_s": round(engine_s, 2),
                "np_sort_oracle_s": round(oracle_s, 2),
                "rows_per_s": round(n / engine_s),
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
