"""PageRank at web-host scale under an object-store cap: 1M-node /
4M-edge derived link graph (the 100 TB shape — ranks as a Dataset,
per-iteration sentinel-union co-partition attach + combiner dst-sum),
with THREE independent exactness checks:

  1. prime-modulus CLOSED FORM — for prime n every LCG edge arm is a
     bijection, the graph is in-regular, and the uniform vector
     r == scale is the exact fixed point at ANY iteration depth: every
     one of the 1M output ranks is asserted == 10^12 exactly;
  2. composite-modulus determinism — same graph, two different
     input block layouts, bit-identical rank vectors;
  3. composite-modulus scalar oracle — numpy fixed point (np.add.at)
     recomputed driver-side must match every rank exactly.

Usage: python -m tools.pagerank_soak [n_nodes] [cap_gb]
Prints one JSON line; raises on any exactness miss.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np
import pyarrow as pa


def _brute(n: int, iters: int, out_degree: int, scale: int, damp_pct: int):
    from engine.graph import EDGE_A, EDGE_B

    ids = np.arange(n, dtype=np.int64)
    a = np.array(EDGE_A[:out_degree], np.int64)
    b = np.array(EDGE_B[:out_degree], np.int64)
    src = np.repeat(ids, out_degree)
    dst = ((ids[:, None] * a[None, :] + b[None, :]) % n).reshape(-1)
    r = np.full(n, scale, np.int64)
    teleport = ((100 - damp_pct) * scale) // 100
    for _ in range(iters):
        s = np.zeros(n, np.int64)
        np.add.at(s, dst, r[src] // out_degree)
        r = teleport + (damp_pct * s) // 100
    return r


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=16,
            include_dashboard=False,
            object_store_memory=int(cap_gb * (1 << 30)),
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from engine.graph import derive_link_edges, pagerank

    # next prime >= n (simple scan; n ~ 1e6 so this is instant)
    def is_prime(x: int) -> bool:
        if x % 2 == 0:
            return x == 2
        f = 3
        while f * f <= x:
            if x % f == 0:
                return False
            f += 2
        return True

    n_prime = n if is_prime(n) else next(x for x in range(n + 1, n + 200) if is_prime(x))

    out = {"n_composite": n, "n_prime": n_prime, "cap_gb": cap_gb}
    scale = 10**12

    # --- check 1: prime closed form at 1M scale ---
    nodes_p = rd.from_arrow(
        pa.table({"id": np.arange(n_prime, dtype=np.int64)})
    ).repartition(32)
    edges_p = derive_link_edges(nodes_p, n_prime)
    t0 = time.time()
    pr_p = pagerank(nodes_p, edges_p, num_partitions=32).to_pandas()
    out["prime_wall_s"] = round(time.time() - t0, 2)
    assert len(pr_p) == n_prime, (len(pr_p), n_prime)
    vals = pr_p.pr.to_numpy()
    assert (vals == scale).all(), "prime closed form violated"

    # --- checks 2+3: composite determinism + scalar oracle ---
    walls = []
    got = []
    for parts in (32, 13):
        nodes_c = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(parts)
        edges_c = derive_link_edges(nodes_c, n)
        t0 = time.time()
        df = pagerank(nodes_c, edges_c, num_partitions=32).to_pandas().sort_values("id")
        walls.append(round(time.time() - t0, 2))
        got.append(df.pr.to_numpy())
    assert (got[0] == got[1]).all(), "block-layout determinism violated"
    expect = _brute(n, 5, 4, scale, 85)
    assert (got[0] == expect).all(), "scalar oracle mismatch"
    out["composite_walls_s"] = walls
    out["edges"] = 4 * n
    out["distinct_ranks"] = int(len(np.unique(got[0])))
    out["driver_rss_gb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2
    )
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
