"""Connected-components rounds soak: the label-propagation path of
engine.dedupe.connected_components_distributed (forced by pinning
``dedupe.CC_LOCAL_MAX_EDGES`` to 0) on a planted graph, once per
label-fetch route (``engine.joins.BROADCAST_MAX_KEYS`` pinned huge for
the broadcast route, 0 for the hash join).

The graph is ``n_edges // 3`` disjoint 4-node chains with ids above
2^60 (exact int64 all the way, no float64 round trip): chain c holds
BASE + 8c + 2j for j = 0..3, linked in id order, so every node's group
is BASE + 8c and propagation takes exactly 4 rounds (3 to carry the
min to the far end, 1 to see the fixed point). Edge order is shuffled
across blocks. The check reduces inside map_batches, so the driver
never receives the labels.

Usage: python -m tools.cc_soak [n_edges] [cap_gb]
Prints one JSON line; raises on any mislabelled node.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa

BASE = (1 << 60) + 1
CHAIN = 4
ROUNDS = CHAIN  # closed form for chains linked in id order


def main() -> None:
    n_edges = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
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

    import engine.dedupe as dedupe
    import engine.joins as joins

    n_chains = n_edges // (CHAIN - 1)
    c = np.repeat(np.arange(n_chains, dtype=np.int64), CHAIN - 1)
    j = np.tile(np.arange(CHAIN - 1, dtype=np.int64), n_chains)
    a = BASE + 8 * c + 2 * j
    order = np.random.default_rng(7).permutation(len(a))
    edges = (
        rd.from_arrow(pa.table({"id_a": a[order], "id_b": a[order] + 2}))
        .repartition(16)
        .materialize()
    )

    def check(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        g = b["group_id"].to_numpy(zero_copy_only=False)
        want = BASE + ((d - BASE) // 8) * 8
        return pa.table(
            {"n": pa.array([len(d)], pa.int64()), "bad": pa.array([int((g != want).sum())], pa.int64())}
        )

    dedupe.CC_LOCAL_MAX_EDGES = 0
    result = {"n_edges": len(a), "n_nodes": n_chains * CHAIN, "rounds": ROUNDS}
    for route, cap in (("broadcast", 1 << 62), ("partition", 0)):
        joins.BROADCAST_MAX_KEYS = cap
        t0 = time.time()
        stats = (
            dedupe.connected_components_distributed(edges)
            .map_batches(check, batch_format="pyarrow")
            .to_pandas()
        )
        wall = time.time() - t0
        n, bad = int(stats["n"].sum()), int(stats["bad"].sum())
        if n != n_chains * CHAIN or bad:
            raise AssertionError(f"{route}: {n} nodes labelled, {bad} wrong")
        result[f"{route}_s"] = round(wall, 2)
        result[f"{route}_s_per_round"] = round(wall / ROUNDS, 2)
    result["exact"] = True
    result["driver_peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
