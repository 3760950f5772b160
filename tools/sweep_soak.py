"""Interval-concurrency-sweep soak (X65) at corpus scale: D days x
~1850 planted intervals/day with a CLOSED-FORM per-day maximum.

Per day d: A_d = 1000 + d % 700 identical intervals [06:00, 07:00)
and B_d = 500 + d % 300 identical SPANNERS [20:00, next day 04:00).
Within a day the three plateaus are time-disjoint (00-04 carry-in of
B_{d-1}, 06-07 A_d, 20-24 B_d), so

  expected_max(d) = max(B_{d-1}, A_d, B_d)        (B_{-1} = 0)
  expected_max(D) = B_{D-1}   (the last spanners' tail day: only END
                               boundaries — the carry-in rule must
                               report the overnight plateau)

Asserts every day's max exactly (D+1 rows). Exercises the signed
global carry at scale: ~37M boundary rows cross 32 range partitions
with nonzero net bases everywhere.

Usage: python -m tools.sweep_soak [n_days] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

HOUR = 3_600_000_000
DAY = 24 * HOUR


def main() -> None:
    d_days = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
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

    from engine.sweep import max_concurrency_by_day

    t0 = time.time()
    d = np.arange(d_days, dtype=np.int64)
    a_n = 1000 + d % 700
    b_n = 500 + d % 300
    # interval starts/ends, replicated per count
    a_s = np.repeat(d * DAY + 6 * HOUR, a_n)
    a_e = a_s + HOUR
    b_s = np.repeat(d * DAY + 20 * HOUR, b_n)
    b_e = np.repeat((d + 1) * DAY + 4 * HOUR, b_n)
    s = np.concatenate([a_s, b_s])
    e = np.concatenate([a_e, b_e])
    n_iv = len(s)
    t = np.concatenate([s, e])
    delta = np.concatenate(
        [np.ones(n_iv, np.int64), -np.ones(n_iv, np.int64)]
    )
    order = np.random.RandomState(42).permutation(len(t))
    tbl = pa.table({"t": t[order], "d": delta[order]})
    gen_s = time.time() - t0

    exp = np.zeros(d_days + 1, np.int64)
    b_prev = np.r_[np.int64(0), b_n[:-1]]
    exp[:d_days] = np.maximum(np.maximum(b_prev, a_n), b_n)
    exp[d_days] = b_n[-1]

    ds = rd.from_arrow(tbl).repartition(128).materialize()
    t1 = time.time()
    out = (
        max_concurrency_by_day(ds, num_partitions=32)
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    sweep_s = time.time() - t1

    assert len(out) == d_days + 1, (len(out), d_days + 1)
    assert (out.day.to_numpy() == np.arange(d_days + 1)).all()
    mism = np.flatnonzero(out.max_concur.to_numpy() != exp)
    assert mism.size == 0, (mism[:5], out.max_concur.to_numpy()[mism[:5]], exp[mism[:5]])

    print(
        json.dumps(
            {
                "metric": "sweep_soak",
                "n_days": d_days,
                "n_intervals": int(n_iv),
                "n_boundaries": int(2 * n_iv),
                "all_days_exact": True,
                "gen_s": round(gen_s, 2),
                "sweep_s": round(sweep_s, 2),
                "boundaries_per_s": round(2 * n_iv / sweep_s),
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
