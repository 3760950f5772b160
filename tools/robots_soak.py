"""robots-filter-at-scale soak (X51): 10M candidate URLs over 200k
hosts filtered through both routes — the broadcast rules table AND
the urls ∪ rules host co-partition, each forced by pinning
``engine.joins.BROADCAST_MAX_KEYS`` — with the object store capped. Every row's verdict is checked against a closed-form map (the
corpus is arithmetic: verdict depends only on (host policy class,
path), 10 x 13 combos evaluated by an independent scalar
reference), and the two paths must agree checksum-exactly.

Usage:  python -m tools.robots_soak [n_urls] [n_hosts] [cap_gb]
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from engine.robots import _PATH_POOL, make_robots_table

SEED = 77


def ref_rules(text: str, agent: str = "graftbot"):
    """Independent scalar parser (the tests' reference semantics)."""
    text = re.sub(r"#[^\n]*", "", text.replace("\r", ""))
    groups, cur_a, cur_r, last_ua = [], [], [], False
    for line in text.split("\n"):
        m = re.match(r"^\s*([A-Za-z-]+)\s*:\s*(.*?)\s*$", line)
        if not m:
            continue
        d, v = m.group(1).lower(), m.group(2)
        if d == "user-agent":
            if not last_ua:
                if cur_a:
                    groups.append((cur_a, cur_r))
                cur_a, cur_r = [], []
            cur_a.append(v.lower())
            last_ua = True
        else:
            last_ua = False
            if d in ("allow", "disallow") and v != "" and cur_a:
                cur_r.append((d == "allow", v))
    if cur_a:
        groups.append((cur_a, cur_r))
    exact = [g for g in groups if agent in g[0]]
    chosen = exact if exact else [g for g in groups if "*" in g[0]]
    return [r for g in chosen for r in g[1]]


def ref_verdict(path: str, rules) -> tuple[bool, int]:
    best = None
    for allow, prefix in rules:
        if path.startswith(prefix):
            pl = len(prefix)
            if best is None or pl > best[0] or (pl == best[0] and allow and not best[1]):
                best = (pl, allow)
    return (True, -1) if best is None else (bool(best[1]), best[0])


def urls_parquet(n_urls: int, n_hosts: int, shards: int = 16) -> str:
    """Vectorized 10M-scale URL corpus (the make_crawl_urls_table
    arithmetic, numpy-built)."""
    path = f"/tmp/geokit_robots_soak/u{n_urls}_h{n_hosts}"
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(path, exist_ok=True)
    pool = np.array(_PATH_POOL, dtype=object)
    per = (n_urls + shards - 1) // shards
    for s in range(shards):
        start = s * per
        cnt = min(per, n_urls - start)
        if cnt <= 0:
            break
        ids = np.arange(start, start + cnt, dtype=np.int64)
        hmod = (ids % n_hosts).astype(np.int64)
        hosts = np.char.add(
            np.char.add("h", hmod.astype(str)), ".example"
        ).astype(object)
        paths = pool[((ids * 7 + ids // n_hosts) % len(pool)).astype(np.int64)]
        pq.write_table(
            pa.table(
                {
                    "url_id": pa.array(ids),
                    "host": pa.array(hosts, pa.string()),
                    "path": pa.array(paths, pa.string()),
                }
            ),
            os.path.join(path, f"part-{s:04d}.parquet"),
        )
    open(done, "w").write("ok")
    return path


def main() -> None:
    n_urls = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    n_hosts = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    cap_gb = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0
    upath = urls_parquet(n_urls, n_hosts)

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

    import engine.joins as joins
    from engine.robots import robots_filter
    from engine.util import clean_read_schema

    robots_tbl = make_robots_table(n_hosts)

    # closed-form verdict map: (host-class, path) -> (allowed, pl);
    # class texts are identical for every host of a residue, so 9
    # ref_rules calls cover all 200k hosts (class 0 = no robots)
    class_text = {}
    for h, t in zip(robots_tbl["host"].to_pylist(), robots_tbl["robots_txt"].to_pylist()):
        k = int(h[1:].split(".")[0]) % 10
        class_text.setdefault(k, t)
    expect = np.zeros((10, len(_PATH_POOL)), dtype=bool)
    expect_pl = np.full((10, len(_PATH_POOL)), -1, dtype=np.int64)
    for k in range(10):
        rules = ref_rules(class_text[k]) if k in class_text else []
        for pi, p in enumerate(_PATH_POOL):
            a, pl = ref_verdict(p, rules)
            expect[k, pi] = a
            expect_pl[k, pi] = pl
    pool_index = {p: i for i, p in enumerate(_PATH_POOL)}

    results = {}
    sums = {}
    for mode, max_keys in (("broadcast", 1 << 40), ("partition", 0)):
        joins.BROADCAST_MAX_KEYS = max_keys
        t0 = time.time()
        urls = rd.read_parquet(
            upath, schema=clean_read_schema(f"{upath}/part-0000.parquet")
        )
        out = robots_filter(urls, rd.from_arrow(robots_tbl).repartition(8), num_partitions=32)
        n = denied = wrong = 0
        chk = np.uint64(0)
        for b in out.iter_batches(batch_format="pyarrow"):
            ids = b["url_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            allowed = b["allowed"].to_numpy(zero_copy_only=False)
            pl = b["matched_pl"].to_numpy(zero_copy_only=False).astype(np.int64)
            kcls = (ids % n_hosts % 10).astype(np.int64)
            pidx = ((ids * 7 + ids // n_hosts) % len(_PATH_POOL)).astype(np.int64)
            wrong += int((allowed != expect[kcls, pidx]).sum())
            wrong += int((pl != expect_pl[kcls, pidx]).sum())
            n += len(ids)
            denied += int((~allowed).sum())
            with np.errstate(over="ignore"):
                chk ^= np.bitwise_xor.reduce(
                    ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                    + allowed.astype(np.uint64)
                    + pl.astype(np.uint64) * np.uint64(1099511628211)
                )
        assert wrong == 0, (mode, wrong)
        assert n == n_urls
        results[mode] = round(time.time() - t0, 1)
        sums[mode] = int(chk)
        results[f"{mode}_denied"] = denied
    assert sums["broadcast"] == sums["partition"]

    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    print(
        json.dumps(
            {
                "metric": "robots_soak",
                "n_urls": n_urls,
                "n_hosts": n_hosts,
                "cap_gb": cap_gb,
                "broadcast_s": results["broadcast"],
                "partition_s": results["partition"],
                "urls_per_s_broadcast": round(n_urls / results["broadcast"], 1),
                "denied": results["broadcast_denied"],
                "paths_checksum_equal": True,
                "all_verdicts_exact": True,
                "driver_peak_rss_gb": round(rss_gb, 2),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
