"""Inverted-index construction at corpus scale: 1M docs / ~40M token
occurrences through engine.invindex.inverted_postings under an
object-store cap, written as a partitioned parquet index (the
resumable-sink shape) and re-read for lookups.

Evidence targets:
- Exactness: df_shard and tf_sum for EVERY (token, shard) row equal an
  independent vectorized truth (np.unique/bincount over the corpus
  generation arithmetic — no engine code, no corpus re-read); posting
  STRINGS are recomputed scalar-side for a deterministic token sample
  and compared verbatim.
- Scale shape: the index is written partitioned by shard
  (write_parquet partition_cols) and a point lookup reads ONE shard
  partition pruned by filter, not the whole index.

Usage: python -m tools.invindex_soak [n_docs] [cap_gb]
Prints one JSON line; raises on any exactness miss.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from tools.bpe_soak import V, _word_strings, corpus_parquet, doc_layout

N_SHARDS = 8


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0

    # ---- independent truth over the generation arithmetic -----------
    words = _word_strings()
    lens, doc_idx, pos, ids = doc_layout(n_docs)
    # per-(doc, token) tf: unique packed keys + counts
    packed = doc_idx * V + ids
    uniq, tf = np.unique(packed, return_counts=True)
    u_doc, u_tok = uniq // V, uniq % V
    u_shard = u_doc % N_SHARDS
    # per-(token, shard): df = row count, tf_sum = sum of tfs
    key = u_tok * N_SHARDS + u_shard
    df_truth = np.bincount(key, minlength=V * N_SHARDS).astype(np.int64)
    tf_truth = np.bincount(key, weights=tf, minlength=V * N_SHARDS).astype(np.int64)

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
    import pyarrow.dataset as pads
    import ray.data as rd

    from engine.invindex import inverted_postings
    from engine.util import clean_read_schema

    cols = ["doc_id", "text"]
    ds = rd.read_parquet(corpus, columns=cols, schema=clean_read_schema(corpus, cols))

    t0 = time.time()
    idx = inverted_postings(ds, n_shards=N_SHARDS, num_partitions=32)
    out_dir = f"/tmp/geokit_invindex/n{n_docs}"
    shutil.rmtree(out_dir, ignore_errors=True)
    idx.write_parquet(out_dir, partition_cols=["shard"])
    build_sec = round(time.time() - t0, 2)

    # ---- verify every (token, shard) df/tf against the truth --------
    got = (
        pads.dataset(out_dir, partitioning="hive")
        .to_table(columns=["token", "shard", "df_shard", "tf_sum"])
        .to_pandas()
    )
    tok_to_id = {w: i for i, w in enumerate(words)}
    g_tok = got["token"].map(tok_to_id).to_numpy()
    g_key = g_tok * N_SHARDS + got["shard"].to_numpy().astype(np.int64)
    assert len(got) == int((df_truth > 0).sum()), (len(got), int((df_truth > 0).sum()))
    assert (got["df_shard"].to_numpy() == df_truth[g_key]).all()
    assert (got["tf_sum"].to_numpy() == tf_truth[g_key]).all()

    # ---- posting strings verbatim for a deterministic token sample --
    sample_toks = np.unique(ids)[:: max(1, len(np.unique(ids)) // 25)][:25]
    t0 = time.time()
    n_checked = 0
    for tid in sample_toks:
        w = words[tid]
        mask = u_tok == tid
        for shard in range(N_SHARDS):
            sm = mask & (u_shard == shard)
            if not sm.any():
                continue
            order = np.argsort(u_doc[sm], kind="stable")
            want = ",".join(
                f"{d}:{c}" for d, c in zip(u_doc[sm][order], tf[sm][order])
            )
            # pruned read: ONE shard partition + token filter
            part = (
                pads.dataset(out_dir, partitioning="hive")
                .to_table(
                    columns=["token", "postings"],
                    filter=(pads.field("shard") == shard)
                    & (pads.field("token") == w),
                )
            )
            assert part.num_rows == 1
            assert part["postings"][0].as_py() == want
            n_checked += 1
    lookup_sec = round(time.time() - t0, 2)

    rss_gb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2)
    print(
        json.dumps(
            {
                "soak": "invindex",
                "n_docs": n_docs,
                "n_occurrences": int(lens.sum()),
                "index_rows": len(got),
                "n_shards": N_SHARDS,
                "build_and_write_sec": build_sec,
                "docs_per_sec": round(n_docs / build_sec, 1),
                "postings_verbatim_checked": n_checked,
                "pruned_lookups_sec": lookup_sec,
                "all_df_tf_exact": True,
                "driver_rss_gb": rss_gb,
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
