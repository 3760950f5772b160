"""Edit-distance-join soak (X66) at corpus scale: N full-entropy keys
(20 random hex chars from a FIXED seed + '-' + a unique hex id tail,
27 chars) plus planted edit cliques; asserts the output is exactly
the planted pair set.

Why full-entropy keys: segment-pigeonhole candidate generation keys
on 9-char segments, so candidate volume ~ sum over segment values of
df_idx * df_probe. Random hex gives 16^9 segment values -> candidates
are the true near-pairs only. (A first soak draft used repetition-3
codewords for a PROVABLE min distance — that construction divides
per-char entropy by 3, collapses segments to ~4k values and makes the
join quadratic BY CONSTRUCTION; the engine now raises loudly on such
constant-segment corpora, see editjoin._GROUP_CROSS_CAP.)

Exactness argument: expected pairs = within-clique pairs (ed <= 2 by
an independent scalar Python DP). Cross-clique / base-base pairs are
absent for this FIXED seed: every reported pair's distance is
re-verified by the scalar DP and its endpoints must be plant members,
so if the random corpus ever contained a genuine extra near-pair the
soak would fail with that pair printed (a corpus fact, not an engine
bug) — it does not, for seed 42 at the tested sizes. The engine-
misses-a-real-pair direction is covered by the planted cliques here
and by brute-force equality in tests/test_editjoin.py.

Every row duplicated (the distinct stage must collapse it).

Usage: python -m tools.editjoin_soak [n_keys] [cap_gb]
Prints one JSON line; raises on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


def _py_lev(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    dp = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, dp = dp, [i] + [0] * lb
        for j in range(1, lb + 1):
            dp[j] = min(
                prev[j] + 1, dp[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1])
            )
    return dp[lb]


def _gen_keys(n: int, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    hexc = np.frombuffer(b"0123456789abcdef", np.uint8)
    rand = hexc[rng.randint(0, 16, (n, 20))]
    dash = np.full((n, 1), ord("-"), np.uint8)
    ids = np.array(
        [list(f"{i:06x}".encode()) for i in range(n)], np.uint8
    )
    mat = np.concatenate([rand, dash, ids], axis=1)
    return mat.view(f"S{mat.shape[1]}").ravel().astype("U27")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
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
    import pyarrow as pa
    import ray.data as rd

    from engine.editjoin import edit_distance_join

    t0 = time.time()
    base = _gen_keys(n)
    # 256 plant cliques on the first 256 base keys: substitution,
    # deletion, insertion at position 5 ('z' is outside the alphabet)
    plants = []
    for sid in range(min(256, n)):
        b = str(base[sid])
        plants.append((b, b[:5] + "z" + b[6:], b[:5] + b[6:], b[:5] + "z" + b[5:]))
    variant_keys = [v for clique in plants for v in clique[1:]]
    gen_s = time.time() - t0

    expected = set()
    for clique in plants:
        for i in range(4):
            for j in range(i + 1, 4):
                d = _py_lev(clique[i], clique[j])
                if d <= 2:
                    a, b = sorted((clique[i], clique[j]))
                    expected.add((a, b, d))

    all_keys = list(base) + variant_keys
    tbl = pa.table({"key": pa.array(all_keys * 2, pa.string())})
    ds = rd.from_arrow(tbl).repartition(64).materialize()

    t1 = time.time()
    out = edit_distance_join(ds, max_dist=2, num_partitions=64).to_pandas()
    join_s = time.time() - t1

    got = set(zip(out.ka, out.kb, out.dist))
    # every reported pair re-verified by the independent scalar DP
    for a, b, d in got:
        dd = _py_lev(a, b)
        assert dd == d <= 2, (a, b, d, dd)
    plant_keys = {v for c in plants for v in c}
    extra = {(a, b, d) for a, b, d in got if not (a in plant_keys and b in plant_keys)}
    assert not extra, f"genuine non-plant near-pairs in corpus: {sorted(extra)[:3]}"
    missing = expected - got
    assert not missing, f"missing {len(missing)}: {sorted(missing)[:3]}"
    assert got == expected

    print(
        json.dumps(
            {
                "metric": "editjoin_soak",
                "n_keys": len(all_keys),
                "n_rows_in": len(all_keys) * 2,
                "n_cliques": len(plants),
                "n_pairs_expected": len(expected),
                "n_pairs_got": len(got),
                "exact": True,
                "gen_s": round(gen_s, 2),
                "join_s": round(join_s, 2),
                "keys_per_s": round(len(all_keys) / join_s),
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
