"""Windowed co-occurrence lift at corpus scale: 1M docs / ~115M
windowed pair occurrences through engine.cooc.cooc_lift under an
object-store cap, the FULL top-k output verified against an
independent arithmetic truth (np.unique over the generation layout —
no engine code, no corpus re-read): pair counts, marginals, N and the
exact integer lift ranking, row for row.

Usage: python -m tools.cooc_soak [n_docs] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

from tools.bpe_soak import V, _word_strings, corpus_parquet, doc_layout

WINDOW = 3
MIN_COUNT = 100
K = 500


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0

    # ---- arithmetic truth -------------------------------------------
    words = _word_strings()
    lens, doc_idx, pos, ids = doc_layout(n_docs)
    keys = []
    for d in range(1, WINDOW + 1):
        ok = doc_idx[:-d] == doc_idx[d:]
        keys.append(ids[:-d][ok].astype(np.int64) * V + ids[d:][ok])
    key = np.concatenate(keys)
    n_pair_occ = key.size
    del keys
    uniq, cnt = np.unique(key, return_counts=True)
    del key
    l_id, r_id = uniq // V, uniq % V
    nl = np.bincount(l_id, weights=cnt, minlength=V).astype(np.int64)
    nr = np.bincount(r_id, weights=cnt, minlength=V).astype(np.int64)
    n_total = int(cnt.sum())
    keep = cnt >= MIN_COUNT
    lift = (1_000_000 * cnt[keep].astype(object) * n_total) // (
        nl[l_id[keep]].astype(object) * nr[r_id[keep]]
    )
    lift = lift.astype(np.int64)
    lw = words[l_id[keep]]
    rw = words[r_id[keep]]
    cw = cnt[keep].astype(np.int64)
    order = np.lexsort((rw, lw, -cw, -lift))[:K]
    truth = list(zip(lw[order], rw[order], cw[order], lift[order]))

    corpus = corpus_parquet(n_docs)

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

    from engine.cooc import cooc_lift
    from engine.util import clean_read_schema

    ds = rd.read_parquet(
        corpus, columns=["text"], schema=clean_read_schema(corpus, ["text"])
    )
    t0 = time.time()
    got = cooc_lift(ds, window=WINDOW, min_count=MIN_COUNT, k=K).to_pandas()
    wall = round(time.time() - t0, 2)

    got_rows = list(
        zip(got["left_tok"], got["right_tok"], got["pair_cnt"], got["lift_ppm"])
    )
    assert len(got_rows) == len(truth)
    for i, (g, t) in enumerate(zip(got_rows, truth)):
        assert (g[0], g[1], int(g[2]), int(g[3])) == (
            t[0],
            t[1],
            int(t[2]),
            int(t[3]),
        ), (i, g, t)

    rss_gb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2)
    print(
        json.dumps(
            {
                "soak": "cooc",
                "n_docs": n_docs,
                "pair_occurrences": int(n_pair_occ),
                "distinct_pairs": int(uniq.size),
                "min_count": MIN_COUNT,
                "k": K,
                "wall_sec": wall,
                "docs_per_sec": round(n_docs / wall, 1),
                "topk_exact": True,
                "driver_rss_gb": rss_gb,
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
