"""Beyond-broadcast swap-path soak: the partition routes that engage
when lookup state outgrows a ray.put broadcast must hold at ~1000x
gate scale, not just in the pytest route-parity matrix. Runs the two
highest-volume swaps end-to-end on both routes over the same corpus
(each route forced by pinning ``engine.joins.BROADCAST_MAX_KEYS``:
huge for broadcast, 0 for partition) and asserts aggregate equality:

- line_dedup (C4 cut): the per-doc drop-blob LEFT hash-join rebuild
  vs the broadcast drop set, over the shared line-soak corpus with
  planted closed-form dup classes (tools/line_dedup_soak.py's
  generator — cached, so the two soaks share bytes);
- canonical_url_dedup: the keeper-table digest hash-join vs the
  broadcast lookup over a messy-URL corpus with a ground-truth canon
  column (engine/weburl.py::make_messy_urls_table scaled up).

Usage:  python -m tools.swap_soak [n_docs] [n_urls] [cap_gb]
Prints one JSON line; any broadcast-vs-partition divergence or
truth-column mismatch fails loudly. Deterministic.
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


def _stats_line(out_ds) -> tuple[int, int, int]:
    """(n_docs, total_dropped, corpus_digest) reduced inside
    map_batches — the driver never sees rebuilt text."""
    from engine.dedupe import content_digests

    def block_stats(b: pa.Table) -> pa.Table:
        d1, _ = content_digests(b["text_dedup"])
        return pa.table(
            {
                "n": pa.array([b.num_rows], pa.int64()),
                "cut": pa.array(
                    [int(pc.sum(b["n_dropped"]).as_py() or 0)], pa.int64()
                ),
                "dig": pa.array([int(d1.view(np.int64).sum())], pa.int64()),
            }
        )

    agg = out_ds.map_batches(block_stats, batch_format="pyarrow").to_pandas()
    return int(agg["n"].sum()), int(agg["cut"].sum()), int(agg["dig"].sum())


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
    n_urls = int(sys.argv[2]) if len(sys.argv) > 2 else 1_000_000
    cap_gb = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0

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

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import engine.joins as joins
    from engine.dedupe import line_dedup
    from engine.util import clean_read_schema
    from engine.weburl import canonical_url_dedup, make_messy_urls_table
    from tools.line_dedup_soak import corpus_parquet

    out: dict = {"metric": "swap_soak", "n_docs": n_docs, "n_urls": n_urls}

    # ---- line_dedup: broadcast vs forced-partition over one corpus
    path = corpus_parquet(n_docs)
    schema = clean_read_schema(f"{path}/part-0000.parquet")

    def line_stats(max_keys: int) -> tuple[tuple[int, int, int], float]:
        t0 = time.time()
        joins.BROADCAST_MAX_KEYS = max_keys
        res = _stats_line(line_dedup(rd.read_parquet(path, schema=schema), num_partitions=64))
        return res, round(time.time() - t0, 1)

    default_max_keys = joins.BROADCAST_MAX_KEYS
    bc, out["line_broadcast_s"] = line_stats(50_000_000)
    pt, out["line_partition_s"] = line_stats(0)
    assert bc == pt, f"line_dedup broadcast {bc} != partition {pt}"
    out["line_docs"], out["line_cut"], _ = pt
    assert out["line_docs"] == n_docs

    # ---- canonical_url_dedup: broadcast vs partition + truth column
    urls = make_messy_urls_table(n_urls)
    uds = rd.from_arrow(urls.select(["page_id", "url"])).repartition(64)
    truth_groups = len(
        pc.unique(urls["truth_canon"].combine_chunks())
    )

    def url_stats(max_keys: int) -> tuple[int, int, int, float]:
        t0 = time.time()
        joins.BROADCAST_MAX_KEYS = max_keys  # 0 forces the hash-join route
        res = canonical_url_dedup(uds, num_partitions=64)

        def bs(b: pa.Table) -> pa.Table:
            k = pc.sum(pc.cast(b["is_keeper"], pa.int64())).as_py() or 0
            f = pc.sum(b["n_forms"]).as_py() or 0
            s = pc.sum(
                pc.if_else(
                    b["is_keeper"], b["keeper_id"], pa.scalar(0, pa.int64())
                )
            ).as_py() or 0
            return pa.table(
                {"k": pa.array([int(k)]), "f": pa.array([int(f)]),
                 "s": pa.array([int(s)])}
            )

        agg = res.map_batches(bs, batch_format="pyarrow").to_pandas()
        return (
            int(agg["k"].sum()),
            int(agg["f"].sum()),
            int(agg["s"].sum()),
            round(time.time() - t0, 1),
        )

    kb, fb, sb, tb = url_stats(default_max_keys)
    kp, fp, sp, tp = url_stats(0)
    assert (kb, fb, sb) == (kp, fp, sp), "canonical_url broadcast != partition"
    assert kb == truth_groups, f"keepers {kb} != truth groups {truth_groups}"
    out.update(
        url_keepers=kb,
        url_truth_groups=truth_groups,
        url_broadcast_s=tb,
        url_partition_s=tp,
    )

    out["driver_peak_rss_gb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2
    )
    out["exact"] = True
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
