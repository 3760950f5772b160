"""Triangle counting at 200× gate scale: 100k-node / 600k-edge 6-arm
link graph through the wedge-join + closure-join shape, checked two
ways: per-node counts bit-identical across two input block layouts,
and the full per-node vector equal to DuckDB's independent ordered
3-way self-join over the same derivation.

Usage: python -m tools.triangle_soak [n_nodes] [cap_gb]
Prints one JSON line; raises on any exactness miss.
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
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
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

    from engine.graph import EDGE_A, EDGE_B, derive_link_edges, triangle_counts

    walls, got = [], []
    for parts in (32, 11):
        nodes = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(parts)
        edges = derive_link_edges(nodes, n, out_degree=6)
        t0 = time.time()
        df = (
            triangle_counts(nodes, edges, num_partitions=16)
            .to_pandas()
            .sort_values("id")
        )
        walls.append(round(time.time() - t0, 2))
        got.append(df.n_tri.to_numpy())
    assert (got[0] == got[1]).all(), "block-layout determinism violated"

    import duckdb

    arms = " UNION ALL ".join(
        f"SELECT i AS src, (i*{EDGE_A[j]}+{EDGE_B[j]}) % {n} AS dst FROM range({n}) t(i)"
        for j in range(6)
    )
    t0 = time.time()
    con = duckdb.connect()
    oracle = con.sql(
        f"""
WITH edges AS ({arms}),
eu AS (SELECT DISTINCT LEAST(src,dst) lo, GREATEST(src,dst) hi
       FROM edges WHERE src<>dst),
tri AS (SELECT e1.lo a, e1.hi b, e2.hi c
        FROM eu e1 JOIN eu e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
             JOIN eu e3 ON e3.lo = e1.hi AND e3.hi = e2.hi),
pn AS (SELECT v, CAST(COUNT(*) AS BIGINT) t
       FROM (SELECT a v FROM tri UNION ALL SELECT b FROM tri
             UNION ALL SELECT c FROM tri) GROUP BY v)
SELECT i AS id, COALESCE(pn.t, 0) AS t
FROM range({n}) r(i) LEFT JOIN pn ON pn.v = i ORDER BY i
"""
    ).df()
    duck_s = round(time.time() - t0, 2)
    assert (got[0] == oracle.t.to_numpy()).all(), "DuckDB oracle mismatch"

    out = {
        "metric": "triangle_soak",
        "n_nodes": n,
        "edges": 6 * n,
        "cap_gb": cap_gb,
        "walls_s": walls,
        "duckdb_oracle_s": duck_s,
        "triangles": int(got[0].sum() // 3),
        "max_per_node": int(got[0].max()),
        "driver_rss_gb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2
        ),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
