"""Z-order layout soak (X59) at data-skipping-visible scale: N
clustered points (mixture of hot towns + uniform background — the
shape real geodata has) are laid out into ~N/part_size z-ordered
parquet files, then bbox queries of three selectivities run through
manifest pruning. Asserts, exactly:

- every written row count / manifest total == N;
- bbox query results == the brute in-box id set (per query);
- layout determinism: re-running the assignment yields an identical
  (id -> pid, pos) mapping hash;
- pruning efficacy: the small-box query must read < 5% of files
  (the whole point of the layout — a row-clustered store would read
  ~all of them).

Usage: python -m tools.zorder_soak [n_points] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pandas as pd


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

    from engine.zorder import (
        GRID_BITS,
        morton_key,
        zorder_assign,
        zorder_bbox_query,
        zorder_layout,
    )

    side = 1 << GRID_BITS
    rng = np.random.default_rng(11)
    ids = np.arange(n, dtype=np.int64)
    # 60% clustered around 8 "towns", 40% uniform background.
    towns = rng.integers(0, side, size=(8, 2))
    pick = rng.integers(0, 8, size=n)
    near = rng.normal(0, side / 200, size=(n, 2)).astype(np.int64)
    cl_x = np.clip(towns[pick, 0] + near[:, 0], 0, side - 1)
    cl_y = np.clip(towns[pick, 1] + near[:, 1], 0, side - 1)
    uni = rng.integers(0, side, size=(n, 2))
    is_cl = rng.random(n) < 0.6
    ix = np.where(is_cl, cl_x, uni[:, 0]).astype(np.int64)
    iy = np.where(is_cl, cl_y, uni[:, 1]).astype(np.int64)

    id_bits = max(1, int(np.ceil(np.log2(n))) + 1)
    pts = rd.from_pandas(
        pd.DataFrame({"id": ids, "ix": ix, "iy": iy})
    ).repartition(64)

    out_dir = "/tmp/geokit_zorder_soak"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    manifest = zorder_layout(
        pts,
        out_dir,
        "id",
        part_size=65_536,
        num_partitions=32,
        id_bits=id_bits,
    )
    t_layout = time.time() - t0
    total = sum(p["rows"] for p in manifest["parts"])
    assert total == n, (total, n)
    n_files = len(manifest["parts"])

    # Determinism: identical assignment hash across two executions.
    def amap_hash() -> int:
        df = (
            zorder_assign(
                pts, "id", part_size=65_536,
                num_partitions=32, id_bits=id_bits,
            )
            .to_pandas()
            .sort_values("id")
        )
        h = (
            df["pid"].to_numpy().astype(np.uint64) * np.uint64(1000003)
            + df["pos"].to_numpy().astype(np.uint64)
        )
        return int(np.bitwise_xor.reduce(h + np.uint64(17)))

    h1, h2 = amap_hash(), amap_hash()
    assert h1 == h2, (h1, h2)

    queries = {
        "town_small": (
            int(towns[0, 0]) - 2000,
            int(towns[0, 0]) + 2000,
            int(towns[0, 1]) - 2000,
            int(towns[0, 1]) + 2000,
        ),
        "medium": (0, side // 8, 0, side // 8),
        "wide": (0, side // 2, 0, side - 1),
    }
    qstats = {}
    for name, (x0, x1, y0, y1) in queries.items():
        x0, y0 = max(0, x0), max(0, y0)
        x1, y1 = min(side - 1, x1), min(side - 1, y1)
        t0 = time.time()
        got, stats = zorder_bbox_query(out_dir, x0, x1, y0, y1)
        gids = np.sort(got.to_pandas()["id"].to_numpy())
        dt = time.time() - t0
        mask = (ix >= x0) & (ix <= x1) & (iy >= y0) & (iy <= y1)
        exp = ids[mask]
        assert np.array_equal(gids, exp), (
            name,
            len(gids),
            len(exp),
        )
        qstats[name] = {
            "rows": int(mask.sum()),
            "files_read": stats["files_read"],
            "files_total": stats["files_total"],
            "sec": round(dt, 2),
        }
    # A 4000-cell-wide town box must touch only a handful of files —
    # allow ceil(5%) or 3 files, whichever is larger (tiny layouts
    # have so few files that one boundary straddle dominates).
    lim = max(3, -(-n_files // 20))
    assert qstats["town_small"]["files_read"] <= lim, qstats["town_small"]

    rss_gb = round(
        __import__("resource").getrusage(
            __import__("resource").RUSAGE_SELF
        ).ru_maxrss
        / (1 << 20),
        2,
    )
    print(
        json.dumps(
            {
                "soak": "zorder",
                "n_points": n,
                "files": n_files,
                "layout_sec": round(t_layout, 2),
                "points_per_s": int(n / t_layout),
                "assign_hash": h1,
                "queries": qstats,
                "driver_rss_gb": rss_gb,
            }
        )
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
