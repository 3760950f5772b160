"""C4 line-quality cleaning at 100× gate scale: 500k pages / ~4.5M
lines through the vectorized clean_lines stage under an object-store
cap, verdicts checked against the generator's independent per-line
scalar truth for EVERY page, plus block-layout bit-identity of the
rebuilt clean text (hash).

Usage: python -m tools.weblines_soak [n_pages] [cap_gb]
Prints one JSON line; raises on any exactness miss.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
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

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from engine.util import clean_read_schema
    from engine.weblines import clean_lines, lines_corpus_parquet

    t0 = time.time()
    path = lines_corpus_parquet(n)  # cached after first build
    gen_s = round(time.time() - t0, 2)

    cols = ["page_id", "text"]
    truth = pq.read_table(path, columns=["page_id", "truth_dropped", "truth_n_kept"])
    t_drop = truth["truth_dropped"].to_numpy(zero_copy_only=False)
    t_kept = truth["truth_n_kept"].to_numpy(zero_copy_only=False)

    hashes, walls = [], []
    n_lines_total = dropped_total = 0
    for blocks in (64, 23):
        ds = rd.read_parquet(
            path, columns=cols, schema=clean_read_schema(path, cols),
            override_num_blocks=blocks,
        )
        t0 = time.time()
        got = clean_lines(ds).to_pandas().sort_values("page_id").reset_index(drop=True)
        walls.append(round(time.time() - t0, 2))
        assert (got.page_dropped.to_numpy() == t_drop).all(), "dropped-verdict miss"
        assert (got.n_kept.to_numpy() == t_kept).all(), "kept-count miss"
        import pandas as pd

        hashes.append(int(pd.util.hash_pandas_object(got.clean_text).sum()))
        n_lines_total = int(got.n_lines.sum())
        dropped_total = int(got.page_dropped.sum())
    assert hashes[0] == hashes[1], "block-layout clean-text hash mismatch"

    out = {
        "metric": "weblines_soak",
        "n_pages": n,
        "n_lines": n_lines_total,
        "cap_gb": cap_gb,
        "gen_s_first_or_cached": gen_s,
        "walls_s": walls,
        "pages_per_s": round(n / walls[-1]),
        "dropped_pages": dropped_total,
        "clean_text_hash": hashes[0],
        "driver_rss_gb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2
        ),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
