"""Windowed token co-occurrence association mining (X54).

The collocation / phrase-mining op of a text pipeline (PMI-style
association scoring — Church & Hanks 1990 — in exact integer "lift"
form): count ordered token pairs within a forward window of ``w``
positions, score each pair by

    lift_ppm = floor(1e6 * c(a,b) * N / (n_left(a) * n_right(b)))

(the PMI argument scaled to ppm — monotone in PMI, exact in integer
arithmetic so the DuckDB mirror is bitwise), and return the top-k.

Scale shape:
- Map side: per-block (left, right, c) partials — tokens are split
  once, doc boundaries respected via a repeated doc index, each window
  distance d in 1..w is one vectorized shifted comparison, counts
  combined in one C-speed pandas groupby. The shuffle moves pair
  partials (bounded by the block's distinct-pair set), never
  occurrences.
- One ``keyed_partition_map`` co-partition on (left, right) merges the
  partials; the merged pair table (co-occurrence matrix, sparse) is
  materialized — the reduced working set.
- Marginals are grouped sums OVER THE PAIR TABLE (not the corpus —
  n_left(a) = Σ_b c(a,b)), i.e. vocab-scale, computed by the same
  partition merge and joined onto the kept pairs by
  ``engine.joins.lookup`` (broadcast while they fit, else hash join).
- Scoring + top-k: per-block lift from the joined marginals, the
  per-block-prune ``topk`` on the total order (lift DESC, c DESC,
  left ASC, right ASC).

Overflow contract: the int64 products are guarded (raise with the
measured bound) — 1e6·c·N and n_l·n_r must stay below 2^63. At gate
and soak scales they do by orders of magnitude; the documented upgrade
path for extreme corpora is two-limb 128-bit division (the mirror
already computes in HUGEINT).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

__all__ = ["cooc_lift", "SQL_COOC_LIFT"]


def _pair_partials_factory(window: int, text_col: str):
    def pair_partials(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(text), "[^a-z0-9]+")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        mask = flat != ""
        flat, doc_idx = flat[mask], doc_idx[mask]
        ls, rs = [], []
        for d in range(1, window + 1):
            if flat.size <= d:
                break
            ok = doc_idx[:-d] == doc_idx[d:]
            ls.append(flat[:-d][ok])
            rs.append(flat[d:][ok])
        if not ls:
            return pa.table(
                {"l": pa.array([], pa.string()), "r": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64())}
            )
        g = (
            pd.DataFrame({"l": np.concatenate(ls), "r": np.concatenate(rs)})
            .groupby(["l", "r"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {"l": pa.array(g["l"], pa.string()), "r": pa.array(g["r"], pa.string()),
             "c": pa.array(g["c"].to_numpy().astype(np.int64))}
        )

    return pair_partials


_OUT_SCHEMA = pa.schema(
    [("left_tok", pa.string()), ("right_tok", pa.string()),
     ("pair_cnt", pa.int64()), ("lift_ppm", pa.int64())]
)


def cooc_lift(
    ds: Dataset,
    window: int = 3,
    min_count: int = 5,
    k: int = 50,
    text_col: str = "text",
    num_partitions: int = 32,
) -> Dataset:
    """Top-k windowed co-occurrence pairs by exact integer lift.

    Each kept pair picks up its two vocab-scale marginals with an
    :func:`engine.joins.lookup` left join on ``l`` then ``r``: a
    broadcast searchsorted while a marginal fits, a bucketed hash join
    of (token, n) rows past that. An empty corpus gives an empty
    result with the output columns."""
    import ray.data as rd

    from engine.joins import lookup
    from engine.shuffle import keyed_partition_map, topk

    partials = ds.map_batches(_pair_partials_factory(window, text_col), batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l", "r"], sort=False)["c"].sum().reset_index()
        g["c"] = g["c"].astype(np.int64)
        return g

    pair_schema = pa.schema([("l", pa.string()), ("r", pa.string()), ("c", pa.int64())])
    pairs = keyed_partition_map(
        partials, ["l", "r"], merge, num_partitions=num_partitions, out_schema=pair_schema
    ).materialize()
    n_total = int(pairs.sum("c") or 0)
    if n_total == 0:
        return rd.from_arrow(_OUT_SCHEMA.empty_table())

    def marg_ds(col: str, out_name: str) -> Dataset:
        def m(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(col, sort=False)["c"].sum().reset_index(name=out_name)
            g[out_name] = g[out_name].astype(np.int64)
            return g

        return keyed_partition_map(
            pairs, [col], m, num_partitions=8,
            out_schema=pa.schema([(col, pa.string()), (out_name, pa.int64())]),
        )

    kept = pairs.filter(expr=f"c >= {int(min_count)}")
    joined = lookup(kept, marg_ds("l", "n_l"), "l", how="left", take=["n_l"])
    joined = lookup(joined, marg_ds("r", "n_r"), "r", how="left", take=["n_r"])

    def score(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(c) == 0:
            return _OUT_SCHEMA.empty_table()
        a = batch["n_l"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = batch["n_r"].to_numpy(zero_copy_only=False).astype(np.int64)
        if int(c.max()) * n_total >= 2**63 // 1_000_000:
            raise OverflowError("lift numerator exceeds int64; use the 128-bit path")
        if int(a.max()) * int(bb.max()) >= 2**63:
            raise OverflowError("lift denominator exceeds int64; use the 128-bit path")
        lift = (1_000_000 * c * n_total) // (a * bb)
        return pa.table(
            {"left_tok": pc.cast(batch["l"], pa.string()),
             "right_tok": pc.cast(batch["r"], pa.string()),
             "pair_cnt": pa.array(c), "lift_ppm": pa.array(lift)}
        )

    scored = joined.map_batches(score, batch_format="pyarrow")
    return topk(
        scored, ["lift_ppm", "pair_cnt", "left_tok", "right_tok"], k,
        descending=[True, True, False, False],
    )


# Mirror: identical tokenization (the vocab_topk identity), window
# pairing via LATERAL position + distance explode, marginals over the
# pair table, HUGEINT products with `//` floor division (exact ≡ the
# engine's int64 path under its overflow guard). SUM(BIGINT) returns
# HUGEINT in DuckDB — every aggregate is cast back (the X41 trap).
SQL_COOC_LIFT = """
WITH t AS MATERIALIZED (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents),
pr AS MATERIALIZED (
  SELECT ts[p] AS l, ts[p + d] AS r, CAST(COUNT(*) AS BIGINT) AS c
  FROM t,
       LATERAL unnest(range(1, len(ts))) AS rr(p),
       LATERAL unnest([1, 2, 3]) AS dd(d)
  WHERE p + d <= len(ts)
  GROUP BY l, r),
nl AS MATERIALIZED (SELECT l, CAST(SUM(c) AS BIGINT) AS n FROM pr GROUP BY l),
nr AS MATERIALIZED (SELECT r, CAST(SUM(c) AS BIGINT) AS n FROM pr GROUP BY r),
nn AS MATERIALIZED (SELECT CAST(SUM(c) AS BIGINT) AS n FROM pr)
SELECT pr.l AS left_tok, pr.r AS right_tok, pr.c AS pair_cnt,
       CAST((CAST(1000000 AS HUGEINT) * pr.c * (SELECT n FROM nn))
            // (CAST(nl.n AS HUGEINT) * nr.n) AS BIGINT) AS lift_ppm
FROM pr
JOIN nl ON pr.l = nl.l
JOIN nr ON pr.r = nr.r
WHERE pr.c >= 5
ORDER BY lift_ppm DESC, pair_cnt DESC, left_tok ASC, right_tok ASC
LIMIT 50
"""
