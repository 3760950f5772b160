"""Line-dedup-at-scale soak: the C4 duplicate-line cut (engine.dedupe.
line_dedup, newline mode) over a synthetic multi-line corpus ~2000x
the driver-gate size with the object store capped, to evidence the
operator's 100 TB shape: the digest shuffle carries 32 B/line — never
line text — losers come back as a sparse packed drop set, and the
rebuild is block-local.

Plants two defect classes with exactly countable outcomes:
- a GLOBAL shared line in every 50th doc (cross-doc dups: all but the
  first occurrence must be cut);
- a within-doc repeat in every doc with i % 97 == 1 (line 5 copies
  line 2: exactly one cut each).
Random 6-word lines from a 5000-word vocab make accidental collisions
(~(8e6)^2 / 2 / 5000^6) negligible; any collision shows up as an
expected-vs-actual mismatch and fails loudly.

Usage:  python -m tools.line_dedup_soak [n_docs] [cap_gb]
Prints one JSON line. Deterministic (seed 4321): rerunning yields the
identical rebuilt-corpus hash.
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

SEED = 4321
VOCAB = 5000
LINES_PER_DOC = 8
WORDS_PER_LINE = 6
SHARED_EVERY = 50  # every 50th doc carries the global shared line (slot 3)
WITHIN_MOD = 97    # docs with i % 97 == 1 repeat line 2 at slot 5
SHARED_LINE = "omega shared sentinel line repeated everywhere"


def corpus_parquet(n_docs: int, shards: int = 8) -> str:
    path = f"/tmp/geokit_line_soak/n{n_docs}_s{SEED}_sh{shards}"
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(path, exist_ok=True)
    words = np.array([f"w{i:04d}" for i in range(VOCAB)], dtype=object)
    per = (n_docs + shards - 1) // shards
    for s in range(shards):
        start = s * per
        cnt = min(per, n_docs - start)
        if cnt <= 0:
            break
        rng = np.random.default_rng(SEED + s)  # shard-deterministic
        idx = rng.integers(0, VOCAB, (cnt, LINES_PER_DOC * WORDS_PER_LINE))
        flat = words[idx.reshape(-1)]
        w = WORDS_PER_LINE
        offs = np.arange(0, (cnt * LINES_PER_DOC + 1) * w, w)
        lines = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(flat, pa.string())
            ),
            " ",
        )
        lines = np.asarray(lines.to_pylist(), dtype=object).reshape(
            cnt, LINES_PER_DOC
        )
        ids = np.arange(start, start + cnt, dtype=np.int64)
        lines[ids % SHARED_EVERY == 0, 3] = SHARED_LINE
        wmask = ids % WITHIN_MOD == 1
        lines[wmask, 5] = lines[wmask, 2]
        doc_offs = np.arange(0, (cnt + 1) * LINES_PER_DOC, LINES_PER_DOC)
        text = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(doc_offs, pa.int32()),
                pa.array(lines.reshape(-1), pa.string()),
            ),
            "\n",
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

    from engine.dedupe import line_dedup
    from engine.util import clean_read_schema

    t0 = time.time()
    ds = rd.read_parquet(path, schema=clean_read_schema(f"{path}/part-0000.parquet"))
    import engine.joins as joins

    joins.BROADCAST_MAX_KEYS = 8_000_000  # keep the drop set broadcast at soak scale
    out = line_dedup(ds, num_partitions=64)

    # Stats reduce INSIDE map_batches (one 3-value row per block) so
    # the driver never receives rebuilt text — the RSS number below
    # measures the operator, not this harness.
    def block_stats(b: pa.Table) -> pa.Table:
        from engine.shuffle import _fnv1a_bytes_vectorized

        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        td = b["text_dedup"]
        if isinstance(td, pa.ChunkedArray):
            td = td.combine_chunks()
        th = _fnv1a_bytes_vectorized(td).view(np.uint64)
        with np.errstate(over="ignore"):
            hb = np.bitwise_xor.reduce(ids * np.uint64(0x9E3779B97F4A7C15) ^ th)
        return pa.table(
            {
                "nl": pa.array([int(pc.sum(b["n_lines"]).as_py() or 0)], pa.int64()),
                "nd": pa.array([int(pc.sum(b["n_dropped"]).as_py() or 0)], pa.int64()),
                "h": pa.array([int(np.int64(hb))], pa.int64()),
            }
        )

    n_lines = n_dropped = 0
    h = np.uint64(0)
    for b in out.map_batches(block_stats, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        n_lines += int(pc.sum(b["nl"]).as_py() or 0)
        n_dropped += int(pc.sum(b["nd"]).as_py() or 0)
        for v in b["h"].to_pylist():
            h ^= np.uint64(v & 0xFFFFFFFFFFFFFFFF)  # two's-complement fold
    wall = time.time() - t0

    shared_count = (n_docs + SHARED_EVERY - 1) // SHARED_EVERY  # docs 0,50,...
    within_count = len(range(1, n_docs, WITHIN_MOD))
    expected = (shared_count - 1) + within_count
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    rec = {
        "metric": "line_dedup_soak",
        "n_docs": n_docs,
        "n_lines": n_lines,
        "cap_gb": cap_gb,
        "wall_s": round(wall, 1),
        "docs_per_s": round(n_docs / wall, 1),
        "lines_per_s": round(n_lines / wall, 1),
        "dropped_lines": n_dropped,
        "expected_dropped": expected,
        "exact": n_dropped == expected,
        "rebuilt_hash": int(h),
        "driver_peak_rss_gb": round(rss_gb, 2),
    }
    print(json.dumps(rec))
    if not rec["exact"]:
        raise SystemExit("dropped-line count does not match the planted count")
    ray.shutdown()


if __name__ == "__main__":
    main()
