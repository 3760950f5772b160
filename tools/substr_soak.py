"""ExactSubstr-at-scale soak: exact repeated-substring removal
(engine.dedupe.exact_substring_dedup, L=15) over a synthetic corpus
~2000x the driver-gate size with the object store capped, to evidence
the operator's 100 TB shape: pass 1 ships per-block distinct (h1, cnt)
partials (never the token-scale window list), pass 2 ships only the
duplicated tail's occurrences, and the rebuild is block-local against
a broadcast span set.

Plants ONE defect class with a closed-form outcome: every
``BOILER_EVERY``-th doc carries the same 20-token boilerplate run at a
fixed offset inside otherwise per-(doc, position)-unique filler
tokens.  With L=15 each occurrence contributes exactly
20 - 15 + 1 = 6 duplicated windows whose union covers exactly the 20
boilerplate positions, so every non-canonical occurrence loses
EXACTLY 20 tokens and the canonical doc (global min doc_id = 0)
loses 0; filler uniqueness means no other window duplicates exist.

Usage:  python -m tools.substr_soak [n_docs] [cap_gb]
Prints one JSON line. Deterministic: rerunning yields the identical
kept-corpus hash.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DOC_TOKENS = 40
BOILER_EVERY = 10
BOILER_AT = 8  # boilerplate occupies token slots [8, 28)
L = 15
BOILER = [f"boiler{j:02d}" for j in range(20)]


def corpus_parquet(n_docs: int, shards: int = 32) -> str:
    # 32 shards keep the in-driver synthesis peak small (the reported
    # driver RSS is a lifetime high-water mark and would otherwise
    # measure corpus generation, not the operator).
    path = f"/tmp/geokit_substr_soak/n{n_docs}_sh{shards}"
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(path, exist_ok=True)
    per = (n_docs + shards - 1) // shards
    for s in range(shards):
        start = s * per
        cnt = min(per, n_docs - start)
        if cnt <= 0:
            break
        ids = np.arange(start, start + cnt, dtype=np.int64)
        # Per-(doc, position)-unique filler: zero accidental dup windows.
        toks = np.empty((cnt, DOC_TOKENS), dtype=object)
        for j in range(DOC_TOKENS):
            toks[:, j] = np.char.add(
                np.char.add("w", ids.astype(str)), f"x{j:02d}"
            ).astype(object)
        bmask = ids % BOILER_EVERY == 0
        for j, w in enumerate(BOILER):
            toks[bmask, BOILER_AT + j] = w
        offs = np.arange(0, (cnt + 1) * DOC_TOKENS, DOC_TOKENS)
        text = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()),
                pa.array(toks.reshape(-1), pa.string()),
            ),
            " ",
        )
        pq.write_table(
            pa.table({"doc_id": pa.array(ids), "text": text}),
            os.path.join(path, f"part-{s:04d}.parquet"),
        )
    open(done, "w").write("ok")
    return path


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    path = corpus_parquet(n_docs)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            object_store_memory=int(cap_gb * (1 << 30)),
            logging_level="ERROR",
        )
    import ray.data as rd

    from engine.dedupe import exact_substring_dedup
    from engine.util import clean_read_schema

    t0 = time.time()
    ds = rd.read_parquet(path, schema=clean_read_schema(f"{path}/part-0000.parquet"))
    # num_partitions sizes the digest-merge shuffle: at this scale the
    # (h1, cnt) partials are ~16 B/row, and 64 partitions would slice
    # each block's partials under Ray's 100 KB inline-object threshold
    # (engine/shuffle.py documents the pathology: inline sub-blocks
    # park on the DRIVER heap — measured 2.2 GB driver RSS at P=64 vs
    # 0.39 GB at P=16; production 128 MB blocks are immune).
    import engine.joins as joins

    joins.BROADCAST_MAX_KEYS = 8_000_000  # keep both broadcast sets broadcast at soak scale
    out = exact_substring_dedup(ds, L=L, num_partitions=16)

    # Stats reduce INSIDE map_batches (one tiny row per block) so the
    # driver never receives rebuilt text.
    def block_stats(b: pa.Table) -> pa.Table:
        from engine.shuffle import _fnv1a_bytes_vectorized

        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        kt = b["kept_text"]
        if isinstance(kt, pa.ChunkedArray):
            kt = kt.combine_chunks()
        th = _fnv1a_bytes_vectorized(kt).view(np.uint64)
        with np.errstate(over="ignore"):
            hb = np.bitwise_xor.reduce(ids * np.uint64(0x9E3779B97F4A7C15) ^ th)
        rm = b["n_removed"].to_numpy(zero_copy_only=False)
        bad = int(((rm != 0) & (rm != 20)).sum())  # only 0 or exactly-20 legal
        rm0 = int(rm[ids.view(np.int64) == 0].sum()) if (ids.view(np.int64) == 0).any() else 0
        return pa.table(
            {
                "nt": pa.array([int(pc.sum(b["n_toks"]).as_py() or 0)], pa.int64()),
                "nr": pa.array([int(rm.sum())], pa.int64()),
                "bad": pa.array([bad], pa.int64()),
                "rm_doc0": pa.array([rm0], pa.int64()),
                "n": pa.array([b.num_rows], pa.int64()),
                "h": pa.array([int(np.int64(hb))], pa.int64()),
            }
        )

    nt = nr = bad = rm0 = n = 0
    h = np.uint64(0)
    for b in out.map_batches(block_stats, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        nt += int(pc.sum(b["nt"]).as_py() or 0)
        nr += int(pc.sum(b["nr"]).as_py() or 0)
        bad += int(pc.sum(b["bad"]).as_py() or 0)
        rm0 += int(pc.sum(b["rm_doc0"]).as_py() or 0)
        n += int(pc.sum(b["n"]).as_py() or 0)
        for v in b["h"].to_pylist():
            h ^= np.int64(v).view(np.uint64)
    wall = time.time() - t0

    n_boiler = (n_docs + BOILER_EVERY - 1) // BOILER_EVERY
    expect_removed = 20 * (n_boiler - 1)
    assert n == n_docs, (n, n_docs)
    assert nt == n_docs * DOC_TOKENS, nt
    assert nr == expect_removed, (nr, expect_removed)
    assert bad == 0, bad  # every doc lost exactly 0 or exactly 20 tokens
    assert rm0 == 0, rm0  # the canonical first occurrence is untouched

    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    print(
        json.dumps(
            {
                "metric": "substr_soak",
                "n_docs": n_docs,
                "cap_gb": cap_gb,
                "wall_s": round(wall, 1),
                "docs_per_s": round(n_docs / wall),
                "n_tokens": nt,
                "removed_tokens": nr,
                "expect_removed": expect_removed,
                "kept_hash": int(np.int64(h)),
                "driver_rss_gb": round(rss_gb, 2),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
