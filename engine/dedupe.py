"""Deduplication operators for web-scale corpora (task mandate):

- exact: content-hash partition + per-group min-id keep
- MinHash + LSH: shingle -> minhash signature -> banded bucket
  groupby -> candidate pairs -> exact-Jaccard verify -> connected
  components by iterative min-label propagation (a groupby per round,
  no driver-side union-find over big data)
- SimHash: 64-bit sign-of-weighted-sum fingerprint + banded hamming
  candidate search
- n-gram Jaccard: exact pairwise verify kernel (used by both LSH
  paths; also exposed standalone)
- embedding cosine near-dup: random-hyperplane LSH buckets ->
  within-bucket cosine verify

Shuffle shape: every method reduces to (bucket-key groupby of small
projected rows) + vectorized verify inside map_groups — the corpus
text never moves more than once, signatures/buckets are the only
shuffled payload.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)

# Declared output schemas for the pair-emitting partition maps: empty
# partitions must still produce correctly-typed (even zero-row) blocks
# or Ray's schema unification types the columns as null (see
# shuffle.keyed_partition_map out_schema).
PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def _fnv1a_tokens(tokens: list[bytes]) -> np.ndarray:
    """64-bit FNV-1a of many byte tokens at once, vectorized COLUMN-
    wise over byte positions: tokens are length-sorted and padded into
    a (n, maxlen) uint8 matrix per chunk; the scan does maxlen
    vectorized steps whose total work equals the total byte count.
    Bit-identical to the scalar per-byte loop."""
    n = len(tokens)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    lens = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n)
    order = np.argsort(lens, kind="stable")
    out = np.empty(n, dtype=np.uint64)
    CHUNK = 1 << 16
    with np.errstate(over="ignore"):  # mod-2^64 wrap is the hash
        for s in range(0, n, CHUNK):
            idx = order[s : s + CHUNK]
            ls = lens[idx]
            maxlen = int(ls[-1]) if len(ls) else 0
            if maxlen == 0:
                out[idx] = FNV_OFFSET
                continue
            buf = b"".join(tokens[i].ljust(maxlen, b"\0") for i in idx)
            M = np.frombuffer(buf, dtype=np.uint8).reshape(len(idx), maxlen)
            h = np.full(len(idx), FNV_OFFSET, dtype=np.uint64)
            for j in range(maxlen):
                active = ls > j
                h[active] = (h[active] ^ M[active, j].astype(np.uint64)) * FNV_PRIME
            out[idx] = h
    return out


def _token_hashes_batch(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a over whitespace tokens of EVERY doc in one shot.
    Returns (flat token hashes, per-doc counts)."""
    all_toks: list[bytes] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        # str.split (Unicode whitespace) THEN encode — bytes.split
        # would change tokenization for non-ASCII whitespace.
        bs = [w.encode("utf-8") for w in t.split()]
        counts[i] = len(bs)
        all_toks.extend(bs)
    return _fnv1a_tokens(all_toks), counts


def _token_hashes(text: str) -> np.ndarray:
    """64-bit FNV-1a over whitespace tokens of one doc (scalar entry
    point — jaccard verify etc.; same values as the batch kernel)."""
    h, _ = _token_hashes_batch([text])
    return h


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles: combine consecutive token hashes
    with a rolling mix (vectorized over the token array)."""
    th = _token_hashes(text)
    if len(th) < k:
        return th if len(th) else np.zeros(0, dtype=np.uint64)
    acc = th[: len(th) - k + 1].copy()
    for j in range(1, k):
        acc = (acc * FNV_PRIME + th[j : len(th) - k + 1 + j]) & MASK64
    return np.unique(acc)


# Deterministic xor-mix seeds for the minhash permutation family.
def _perm_seeds(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    a = rng.integers(1, 1 << 61, num_perm, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 1 << 61, num_perm, dtype=np.uint64)
    return a, b


def _flat_shingles(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """All docs' shingle hashes in one flat array + per-doc counts —
    no per-doc Python loop. Same values as _shingle_hashes modulo
    duplicates (signature mins are unaffected by duplicate shingles;
    docs with 0 < tokens < k fall back to raw token hashes, matching
    the scalar kernel)."""
    th, counts = _token_hashes_batch(texts)
    total = int(counts.sum())
    n = len(texts)
    sh_counts = np.where(counts == 0, 0, np.where(counts < k, counts, counts - k + 1))
    total_sh = int(sh_counts.sum())
    if total_sh == 0:
        return np.zeros(0, dtype=np.uint64), sh_counts
    with np.errstate(over="ignore"):
        if total >= k:
            acc = th[: total - k + 1].copy()
            for j in range(1, k):
                acc = acc * FNV_PRIME + th[j : total - k + 1 + j]
        else:
            acc = np.zeros(0, dtype=np.uint64)
    tok_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sh_starts = np.concatenate([[0], np.cumsum(sh_counts)[:-1]])
    local = np.arange(total_sh, dtype=np.int64) - np.repeat(sh_starts, sh_counts)
    src = np.repeat(tok_starts, sh_counts) + local
    use_acc = np.repeat(counts >= k, sh_counts)
    out = np.empty(total_sh, dtype=np.uint64)
    if use_acc.any():
        out[use_acc] = acc[src[use_acc]]
    if (~use_acc).any():
        out[~use_acc] = th[src[~use_acc]]
    return out, sh_counts


def _sig_matrix(texts: list[str], num_perm: int = 64, shingle_k: int = 3) -> np.ndarray:
    """(n, num_perm) uint64 minhash signatures for a batch of texts —
    the vectorized core of ``minhash_batch`` (flat shingle array +
    segment-wise ``minimum.reduceat`` per permutation, chunked to
    bound the (perms, shingles) temporary). Docs with zero tokens get
    the all-MASK64 sentinel signature."""
    a, b = _perm_seeds(num_perm)
    n = len(texts)
    sh_flat, sh_counts = _flat_shingles(texts, shingle_k)
    sig = np.full((n, num_perm), MASK64, dtype=np.uint64)
    nonempty = sh_counts > 0
    if nonempty.any():
        seg_starts = (np.concatenate([[0], np.cumsum(sh_counts)[:-1]]))[nonempty]
        CH = 16
        m = np.empty((CH, len(sh_flat)), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for s in range(0, num_perm, CH):
                # Row-at-a-time with out= : numpy's 2-D uint64 broadcast
                # multiply measured 20x slower than the 1-D kernel.
                for i in range(min(CH, num_perm - s)):
                    np.multiply(sh_flat, a[s + i], out=m[i])
                    np.add(m[i], b[s + i], out=m[i])
                sig[nonempty, s : s + CH] = np.minimum.reduceat(
                    m[: min(CH, num_perm - s)], seg_starts, axis=1
                ).T
    return sig


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 LSH band hashes from a signature matrix: FNV
    Horner over each band's rows, top bit shifted off so the value is
    a non-negative int64 (the SQL mirror's ``// 2 AS BIGINT``)."""
    n, num_perm = sig.shape
    rows_per_band = num_perm // bands
    sb = sig.reshape(n, bands, rows_per_band)
    with np.errstate(over="ignore"):
        h = sb[:, :, 0].copy()
        for j in range(1, rows_per_band):
            h = h * FNV_PRIME + sb[:, :, j]
    return (h >> np.uint64(1)).astype(np.int64)


def minhash_batch(
    batch: pa.Table,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
) -> pa.Table:
    """Per doc: signature -> band hashes; emits (id, band, band_hash)
    rows (bands x rows of the input batch). Fully vectorized across
    the batch: flat shingle array + segment-wise ``minimum.reduceat``
    per permutation (chunked to bound the (perms, shingles) temporary).
    Bit-identical to the per-doc scalar path (pytest-checked)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    n = len(texts)
    sig = _sig_matrix(texts, num_perm=num_perm, shingle_k=shingle_k)
    band_hash = _band_hashes(sig, bands)
    out_ids = np.repeat(ids, bands)
    out_band = np.tile(np.arange(bands, dtype=np.int32), n)
    return pa.table(
        {
            id_col: pa.array(out_ids),
            "band": pa.array(out_band),
            "band_hash": pa.array(band_hash.ravel()),
        }
    )


def jaccard(texts_a: str, texts_b: str, k: int = 3) -> float:
    sa = set(_shingle_hashes(texts_a, k).tolist())
    sb = set(_shingle_hashes(texts_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def shingle_set_rows(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text", shingle_k: int = 3
) -> pa.Table:
    """Per doc: DISTINCT shingle hashes as flat (id, s, n) rows — the
    inverted-index input for the exact Jaccard similarity join.
    Distinctness via ONE lexsort across the whole batch (no per-doc
    Python loop); carrying each doc's distinct-shingle count ``n`` on
    every row lets the pair stage compute union sizes without a
    separate sizes join. Docs with zero shingles (empty text) emit no
    rows and therefore never pair."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    flat, counts = _flat_shingles(texts, shingle_k)
    seg = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    order = np.lexsort((flat, seg))
    fs, ss = flat[order], seg[order]
    keep = np.ones(len(fs), dtype=bool)
    keep[1:] = (fs[1:] != fs[:-1]) | (ss[1:] != ss[:-1])
    dseg = ss[keep]
    nd = np.bincount(dseg, minlength=len(texts)).astype(np.int64)
    return pa.table(
        {
            id_col: pa.array(ids[dseg].astype(np.int64)),
            "s": pa.array(fs[keep].view(np.int64)),
            "n": pa.array(nd[dseg]),
        }
    )


def jaccard_similarity_join(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 3,
    threshold: tuple[int, int] = (1, 2),
    num_partitions: int = 64,
    max_df: int | None = None,
    method: str = "inverted",
) -> Dataset:
    """Exact n-gram (word k-shingle) Jaccard similarity self-join: all
    pairs with |A∩B| / |A∪B| >= num/den, via a distributed inverted
    index on shingle hash — no LSH approximation, and no text through
    any shuffle (only (id, shingle-hash, size) rows move).

    ``method="prefix"`` routes to jaccard_similarity_join_prefix (the
    fully-exact scale path: prefix filtering removes both the df^2
    hot-bucket risk and the max_df lower-bound caveat; identical
    output values).

    Stage 1 co-groups by shingle hash and emits per-partition PARTIAL
    intersection counts per candidate pair (docs sharing >= 1
    shingle); stage 2 co-groups by id_a, sums partials to |A∩B| and
    applies the threshold in integer cross-multiplied form
    (``den*i >= num*(na+nb-i)`` — no float compare).

    Scale note (100 TB): stage-1 cost is sum over shingles of df^2.
    Ultra-common shingles (boilerplate runs) are the skew risk;
    ``max_df`` drops shingle buckets with document frequency > max_df
    from candidate generation, making reported intersections a lower
    bound (the classic df-capping of the all-pairs-similarity
    literature; prefix filtering is the fully-exact scale path). The
    driver-gate query runs exact (max_df=None).

    Returns Dataset[id_a, id_b, inter, na, nb] (all int64).
    """
    from engine.shuffle import keyed_partition_map

    if method == "prefix":
        return jaccard_similarity_join_prefix(
            ds,
            id_col=id_col,
            text_col=text_col,
            shingle_k=shingle_k,
            threshold=threshold,
            num_partitions=num_partitions,
        )
    if method != "inverted":
        raise ValueError(f"unknown method {method!r}")
    num, den = threshold
    rows = ds.map_batches(
        shingle_set_rows,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, shingle_k=shingle_k),
    )

    partial_schema = pa.schema(
        [
            ("id_a", pa.int64()),
            ("id_b", pa.int64()),
            ("na", pa.int64()),
            ("nb", pa.int64()),
            ("pi", pa.int64()),
        ]
    )

    def _empty(schema: pa.Schema) -> pd.DataFrame:
        return pd.DataFrame({f.name: pd.Series(dtype=np.int64) for f in schema})

    def bucket_partials(df: pd.DataFrame) -> pd.DataFrame:
        df, bounds = _bucket_runs(df, ["s"], id_col)
        if df.empty:
            return _empty(partial_schema)
        ids = df[id_col].to_numpy()
        ns = df["n"].to_numpy()
        out_a, out_b, out_na, out_nb = [], [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if max_df is not None and e - s > max_df:
                continue
            ia, ib = np.triu_indices(e - s, k=1)
            out_a.append(ids[s:e][ia])
            out_b.append(ids[s:e][ib])
            out_na.append(ns[s:e][ia])
            out_nb.append(ns[s:e][ib])
        if not out_a:
            return _empty(partial_schema)
        g = pd.DataFrame(
            {
                "id_a": np.concatenate(out_a).astype(np.int64),
                "id_b": np.concatenate(out_b).astype(np.int64),
                "na": np.concatenate(out_na).astype(np.int64),
                "nb": np.concatenate(out_nb).astype(np.int64),
            }
        )
        return (
            g.groupby(["id_a", "id_b", "na", "nb"], sort=False)
            .size()
            .reset_index(name="pi")
        )

    partials = keyed_partition_map(
        rows, ["s"], bucket_partials, num_partitions, out_schema=partial_schema
    )

    out_schema = pa.schema(
        [
            ("id_a", pa.int64()),
            ("id_b", pa.int64()),
            ("inter", pa.int64()),
            ("na", pa.int64()),
            ("nb", pa.int64()),
        ]
    )

    def sum_filter(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty(out_schema)
        g = (
            df.groupby(["id_a", "id_b", "na", "nb"], sort=False)["pi"]
            .sum()
            .reset_index(name="inter")
        )
        i = g["inter"].to_numpy()
        keep = den * i >= num * (g["na"].to_numpy() + g["nb"].to_numpy() - i)
        return g.loc[keep, ["id_a", "id_b", "inter", "na", "nb"]]

    return keyed_partition_map(
        partials, ["id_a"], sum_filter, num_partitions=16, out_schema=out_schema
    )


_CAND_SCHEMA = pa.schema(
    [
        ("id_a", pa.int64()),
        ("id_b", pa.int64()),
        ("na", pa.int64()),
        ("nb", pa.int64()),
    ]
)


def _shingle_df_table(rows: Dataset, num_partitions: int = 64) -> Dataset:
    """Global shingle document frequencies as a Dataset[s, c] holding
    df >= 2 ONLY — a shingle absent from the table has df == 1 by
    construction, so the full global order (df, s) is derivable from
    this duplicate-vocab-scale table. Combiner shape: per-block
    unique-counts pre-aggregate, one coarse shuffle of (s, partial)
    int64 rows."""
    from engine.shuffle import keyed_partition_map

    def pre(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        u, c = np.unique(s, return_counts=True)
        return pa.table({"s": pa.array(u), "c": pa.array(c.astype(np.int64))})

    partials = rows.map_batches(pre, batch_format="pyarrow")
    df_schema = pa.schema([("s", pa.int64()), ("c", pa.int64())])

    def sum_df(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("s", sort=False)["c"].sum().reset_index()
        return g.loc[g["c"] >= 2]

    return keyed_partition_map(
        partials, ["s"], sum_df, num_partitions=num_partitions, out_schema=df_schema
    )


def _collect_df_ref(dfs: Dataset):
    """Driver-collect a (sorted shingle hashes, df) pair from the df
    table and ``ray.put`` it once — the broadcast leg; routing happens
    in the caller (jaccard_similarity_join_prefix)."""
    import ray

    parts_s, parts_c = [], []
    for b in dfs.iter_batches(batch_format="pyarrow"):
        parts_s.append(b["s"].to_numpy(zero_copy_only=False))
        parts_c.append(b["c"].to_numpy(zero_copy_only=False))
    s_all = np.concatenate(parts_s) if parts_s else np.zeros(0, dtype=np.int64)
    c_all = np.concatenate(parts_c) if parts_c else np.zeros(0, dtype=np.int64)
    order = np.argsort(s_all)
    return ray.put((s_all[order], c_all[order]))


def _prefix_len(n: np.ndarray, num: int, den: int) -> np.ndarray:
    """All-Pairs/PPJoin prefix length for Jaccard >= num/den:
    |A| - ceil(t*|A|) + 1, in exact integers."""
    return n - (num * n + den - 1) // den + 1


def jaccard_similarity_join_prefix(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 3,
    threshold: tuple[int, int] = (1, 2),
    num_partitions: int = 64,
) -> Dataset:
    """Exact Jaccard self-join via PREFIX FILTERING (Bayardo et al.
    'Scaling Up All Pairs Similarity Search', WWW'07; Xiao et al.
    PPJoin) — the fully-exact scale path with NO df cap and NO df^2
    blowup on ultra-common shingles.

    Principle: order every doc's distinct shingles by the global
    rarest-first total order (df, s); if J(A,B) >= t then the
    (|A| - ceil(t|A|) + 1)-prefixes of A and B must share a shingle.
    Ultra-common shingles sort LAST, so they land in prefixes only
    when a doc has nothing rarer — candidate buckets stay df-small
    exactly where the inverted-index variant exploded.

    Stages (text never enters a shuffle until the endpoint-filtered
    verify):
      1. df pass — per-block shingle counts, one (s, partial) int64
         shuffle; the route is the ``engine.joins`` rule: at most
         ``joins.BROADCAST_MAX_KEYS`` shared (df>=2) shingles -> the
         df map broadcasts once (``ray.put``); beyond it (the
         beyond-broadcast swap) it stays distributed and the df lookup is a
         bucketed LEFT :func:`engine.joins.hash_join` of the shingle
         rows on s (absent ⇒ df=1), followed by one doc-keyed
         co-partition that re-groups each doc's annotated shingles to
         cut its prefix — two extra int-row shuffles, no driver
         collect; both legs bit-identical (tests/test_swap_paths.py
         route parity);
      2. prefix pass — re-shingle per block, per-doc lexsort by
         (df, s), emit only prefix (id, s, n, pos) rows (pos = the
         shingle's 0-based position in the doc's full sorted order);
      3. candidates — co-group prefix rows by s; per-bucket pairs with
         the integer length filter (den*min(na,nb) >= num*max(na,nb))
         AND the PPJoin positional filter: a bucket occurrence at
         positions (pa, pb) bounds the overlap by
         ub = min(na - pa, nb - pb), so the pair can only reach
         J >= num/den if (num+den)*ub >= num*(na+nb); a pair survives
         if ANY of its shared-prefix occurrences passes. No false
         negatives: for a truly-similar pair, all inter shared
         shingles sit at positions >= (pa, pb) of the FIRST shared
         shingle, so inter <= min(na - pa, nb - pb) = ub there, and
         inter >= num*(na+nb)/(num+den) makes that occurrence pass.
         Survivors dedupe globally (candidate-scale);
      4. verify — the exact UNCAPPED inverted join over the candidate-
         endpoint-semi-filtered corpus (see the inline correctness
         note: prefix filtering's no-false-negative property makes
         the restricted sub-corpus sufficient, and the restricted
         df² cost shrinks quadratically with the endpoint fraction).

    Returns Dataset[id_a, id_b, inter, na, nb] — identical values to
    jaccard_similarity_join(max_df=None) (pytest brute-force checked,
    including an uncapped ultra-common-shingle corpus).
    """
    import ray

    from engine import joins
    from engine.shuffle import keyed_partition_map

    num, den = threshold
    src = ds.select_columns([id_col, text_col])
    rows = src.map_batches(
        shingle_set_rows,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, shingle_k=shingle_k),
    )
    dfs = _shingle_df_table(rows, num_partitions).materialize()
    broadcast = dfs.count() <= joins.BROADCAST_MAX_KEYS
    ref = _collect_df_ref(dfs) if broadcast else None

    def prefix_rows(b: pa.Table) -> pa.Table:
        t = shingle_set_rows(b, id_col, text_col, shingle_k)
        if t.num_rows == 0:
            return t
        ids = t[id_col].to_numpy(zero_copy_only=False)
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        s_map, df_map = ray.get(ref)
        if len(s_map):
            pos = np.clip(np.searchsorted(s_map, s), 0, len(s_map) - 1)
            dfv = np.where(s_map[pos] == s, df_map[pos], 1)
        else:
            dfv = np.ones(len(s), dtype=np.int64)
        # shingle_set_rows emits each doc's rows contiguously.
        change = np.concatenate([[True], ids[1:] != ids[:-1]])
        seg = np.cumsum(change) - 1
        counts = np.bincount(seg)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        order = np.lexsort((s, dfv, seg))  # per doc: rarest-first, s tiebreak
        rank = np.arange(len(s), dtype=np.int64) - np.repeat(starts, counts)
        p = _prefix_len(counts.astype(np.int64), num, den)
        keep = rank < p[seg[order]]
        idx = order[keep]
        return pa.table(
            {
                id_col: pa.array(ids[idx]),
                "s": pa.array(s[idx]),
                "n": pa.array(n[idx]),
                # Position in the doc's full rarest-first order (the
                # prefix is its first p elements, so rank IS pos).
                "pos": pa.array(rank[keep]),
            }
        )

    if broadcast:
        prefix = src.map_batches(prefix_rows, batch_format="pyarrow")
    else:
        # Hash-partitioned df-join leg: LEFT join shingle rows against
        # the df table on s (absent => df 1), then co-partition by doc
        # to rebuild each doc's rarest-first order and cut its prefix.
        annotated = joins.hash_join(
            rows, dfs, "s", num_buckets=num_partitions, how="left"
        )

        prefix_schema = pa.schema(
            [
                (id_col, pa.int64()),
                ("s", pa.int64()),
                ("n", pa.int64()),
                ("pos", pa.int64()),
            ]
        )

        def prefix_part(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame(
                    {f.name: pd.Series(dtype=np.int64) for f in prefix_schema}
                )
            dfv = df["c"].fillna(1).to_numpy().astype(np.int64)
            work = pd.DataFrame(
                {
                    id_col: df[id_col].to_numpy().astype(np.int64),
                    "s": df["s"].to_numpy().astype(np.int64),
                    "n": df["n"].to_numpy().astype(np.int64),
                    "dfv": dfv,
                }
            ).sort_values([id_col, "dfv", "s"], kind="stable")
            ids = work[id_col].to_numpy()
            change = np.concatenate([[True], ids[1:] != ids[:-1]])
            seg = np.cumsum(change) - 1
            counts = np.bincount(seg)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            rank = np.arange(len(ids), dtype=np.int64) - np.repeat(starts, counts)
            p = _prefix_len(counts.astype(np.int64), num, den)
            keep = rank < p[seg]
            out = work.loc[keep, [id_col, "s", "n"]].copy()
            out["pos"] = rank[keep]
            return out

        prefix = keyed_partition_map(
            annotated, [id_col], prefix_part,
            num_partitions=num_partitions, out_schema=prefix_schema,
        )

    def prefix_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df, bounds = _bucket_runs(df, ["s"], id_col)
        empty = pd.DataFrame(
            {f.name: pd.Series(dtype=np.int64) for f in _CAND_SCHEMA}
        )
        if df.empty:
            return empty
        ids = df[id_col].to_numpy()
        ns = df["n"].to_numpy()
        ps = df["pos"].to_numpy()
        out_a, out_b, out_na, out_nb, out_pa, out_pb = [], [], [], [], [], []
        for st, e in zip(bounds[:-1], bounds[1:]):
            ia, ib = np.triu_indices(e - st, k=1)
            out_a.append(ids[st:e][ia])
            out_b.append(ids[st:e][ib])
            out_na.append(ns[st:e][ia])
            out_nb.append(ns[st:e][ib])
            out_pa.append(ps[st:e][ia])
            out_pb.append(ps[st:e][ib])
        a = np.concatenate(out_a).astype(np.int64)
        bb = np.concatenate(out_b).astype(np.int64)
        na = np.concatenate(out_na).astype(np.int64)
        nb = np.concatenate(out_nb).astype(np.int64)
        pos_a = np.concatenate(out_pa).astype(np.int64)
        pos_b = np.concatenate(out_pb).astype(np.int64)
        # Integer length filter: J >= t forces min >= t*max. Then the
        # positional filter (docstring): this occurrence's overlap
        # upper bound must still allow J >= num/den.
        ok = den * np.minimum(na, nb) >= num * np.maximum(na, nb)
        ub = np.minimum(na - pos_a, nb - pos_b)
        ok &= (num + den) * ub >= num * (na + nb)
        g = pd.DataFrame(
            {"id_a": a[ok], "id_b": bb[ok], "na": na[ok], "nb": nb[ok]}
        ).drop_duplicates(["id_a", "id_b"])
        return g

    cand = keyed_partition_map(
        prefix, ["s"], prefix_pairs, num_partitions, out_schema=_CAND_SCHEMA
    )
    # Global pair dedup (a pair can surface from several shared prefix
    # shingles across partitions); candidate-scale, object-store-side.
    cand = keyed_partition_map(
        cand,
        ["id_a"],
        lambda df: df.drop_duplicates(["id_a", "id_b"]),
        num_partitions=16,
        out_schema=_CAND_SCHEMA,
    ).materialize()

    # Verify = the EXACT uncapped inverted join over the candidate-
    # ENDPOINT-restricted corpus. Correctness: prefix filtering has no
    # false negatives, so every truly-similar pair has BOTH endpoints
    # in the candidate endpoint set; the inverted join over that
    # sub-corpus therefore returns exactly the true pair set (it can't
    # return more — everything it returns passes the exact threshold).
    # The candidate PAIR list matters only through its endpoint set;
    # the length/positional filters just shrink it. Cost: the df² term
    # now runs over restricted df_r(s) ≈ (endpoint fraction) · df(s) —
    # quadratically smaller wherever prefix filtering bites — and the
    # per-PAIR shingle explosion of the generic pair verify
    # (Σ_pairs (na+nb) rows, measured 10 s for 125k mid-density
    # candidates at sf0.1 vs ~1 s for this shape) is gone entirely.
    # The generic verify remains the right tool for LSH pair lists
    # whose endpoints lack the no-false-negative guarantee.
    restricted = candidate_docs(src, cand, id_col, text_col)
    # The semi-filter preserves corpus block structure; coalesce to an
    # endpoint-proportional block count (the measured mostly-empty-
    # block fix from the generic verify, 24.3 s -> 12.5 s at 1M docs).
    n_pairs_total = cand.count()  # cached: cand is materialized
    restricted = restricted.repartition(
        max(num_partitions, -(-2 * n_pairs_total // 32_768))
    )
    return jaccard_similarity_join(
        restricted,
        id_col=id_col,
        text_col=text_col,
        shingle_k=shingle_k,
        threshold=threshold,
        num_partitions=num_partitions,
        max_df=None,
        method="inverted",
    )


def _bucket_runs(df: pd.DataFrame, bucket_cols: list[str], id_col: str):
    """Shared LSH-bucket scaffolding: keep only rows whose bucket key
    occurs >= 2x, sort by (bucket, id), return (sorted df, run bounds)
    — one implementation for the minhash and simhash pair emitters."""
    dup = df.duplicated(subset=bucket_cols, keep=False)
    df = df.loc[dup].sort_values(bucket_cols + [id_col], kind="stable")
    if df.empty:
        return df, np.zeros(1, dtype=np.int64)
    change = np.zeros(len(df) - 1, dtype=bool)
    for c in bucket_cols:
        v = df[c].to_numpy()
        change |= v[1:] != v[:-1]
    bounds = np.concatenate([[0], np.flatnonzero(change) + 1, [len(df)]])
    return df, bounds


def minhash_lsh_pairs(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
) -> Dataset:
    """Candidate near-dup pairs: (id_a < id_b) sharing any LSH band
    bucket. Dedup'd across bands. Returns Dataset[id_a, id_b]."""
    sig = ds.map_batches(
        minhash_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(id_col=id_col, text_col=text_col, num_perm=num_perm, bands=bands, shingle_k=shingle_k),
    )

    def bucket_pairs_partition(df: pd.DataFrame) -> pd.DataFrame:
        # Vectorized over ALL fine buckets in this partition (the
        # candidate buckets are a tiny fraction — see _bucket_runs).
        df, bounds = _bucket_runs(df, ["band", "band_hash"], id_col)
        if df.empty:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64)}
            )
        ids = df[id_col].to_numpy()
        out_a, out_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            ia, ib = np.triu_indices(e - s, k=1)
            out_a.append(ids[s:e][ia])
            out_b.append(ids[s:e][ib])
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_a).astype(np.int64),
                "id_b": np.concatenate(out_b).astype(np.int64),
            }
        )

    from engine.shuffle import keyed_partition_map

    pairs = keyed_partition_map(
        sig, ["band", "band_hash"], bucket_pairs_partition, out_schema=PAIR_SCHEMA
    )

    def count_partition(df: pd.DataFrame) -> pd.DataFrame:
        # Ray's Aggregate op costs ~100-200 ms per block on tiny pair
        # sets (measured 6.6 s task time for 3.6k rows); a second
        # coarse partition-map is ~20x cheaper. Keying on id_a alone
        # co-locates every (id_a, id_b) row.
        return df.groupby(["id_a", "id_b"], sort=False).size().reset_index(name="n_bands")

    return keyed_partition_map(
        pairs,
        ["id_a"],
        count_partition,
        num_partitions=16,
        out_schema=PAIR_SCHEMA.append(pa.field("n_bands", pa.int64())),
    )


def verify_pairs_jaccard(
    pairs: pd.DataFrame, texts: dict, threshold: float, shingle_k: int = 3
) -> pd.DataFrame:
    """Exact-Jaccard verification of candidate pairs (broadcast text
    lookup — candidates are a tiny fraction of the corpus)."""
    keep = [
        jaccard(texts[a], texts[b], shingle_k) >= threshold
        for a, b in zip(pairs["id_a"], pairs["id_b"])
    ]
    return pairs[np.array(keep, dtype=bool)] if len(pairs) else pairs


def connected_components_distributed(
    pairs: Dataset,
    max_rounds: int = 30,
    num_partitions: int = 32,
    force_rounds: bool = False,
) -> Dataset:
    """Distributed connected components on the dup graph by iterative
    min-label propagation — one co-partitioned merge per round, no
    driver-side union-find over the edges (the 10^12-row scale path).

    State per round: labels(node, label). Each round ships every
    edge's endpoint labels both directions and takes the per-node min
    (including the node's current label); labels are monotonically
    non-increasing, so the driver-side convergence check is a single
    scalar sum per round. Rounds needed = graph diameter (dup clusters
    are shallow: pairs share LSH buckets, so diameters are small).

    Returns Dataset[doc_id, group_id] for every node appearing in
    ``pairs``."""
    from engine.shuffle import conform_blocks, keyed_partition_map

    pairs = conform_blocks(
        pairs, pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    )

    def to_nodes(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False)
        bb = b["id_b"].to_numpy(zero_copy_only=False)
        node = np.concatenate([a, bb])
        return pa.table({"node": pa.array(node), "label": pa.array(node)})

    edges = pairs.materialize()
    n_edges = edges.count()  # scalar — no data reaches the driver
    out_schema = pa.schema([("doc_id", pa.int64()), ("group_id", pa.int64())])
    if n_edges == 0:
        # typed, so a consumer's join sees int64 columns, not no schema
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    # Fast path: a dup graph that fits one worker's heap converges in
    # a SINGLE task (vectorized union-find with pointer jumping inside
    # the worker — not on the driver). The round-based propagation
    # below costs ~3 s of fixed Ray overhead per round (two groupby
    # shuffles + a sum), which a 300-edge graph should never pay; the
    # rounds path remains the scale route for graphs beyond one heap.
    if n_edges <= 5_000_000 and not force_rounds:

        def cc_whole(df: pd.DataFrame) -> pd.DataFrame:
            a = df["id_a"].to_numpy()
            b = df["id_b"].to_numpy()
            ids = np.unique(np.concatenate([a, b]))
            ai = np.searchsorted(ids, a)
            bi = np.searchsorted(ids, b)
            lab = np.arange(len(ids), dtype=np.int64)
            while True:
                before = lab.copy()
                m = np.minimum(lab[ai], lab[bi])
                np.minimum.at(lab, ai, m)
                np.minimum.at(lab, bi, m)
                lab = lab[lab]  # pointer jumping: log-diameter rounds
                if np.array_equal(lab, before):
                    break
            return pd.DataFrame({"doc_id": ids, "group_id": ids[lab]})

        return keyed_partition_map(edges, ["id_a"], cc_whole, 1, out_schema=out_schema)
    # Partition count sized to the measured edge count: one partition
    # per ~20k edges keeps every round a handful of tasks while
    # preserving the co-partitioned shape at any scale.
    num_partitions = min(num_partitions, max(1, n_edges // 20_000 + 1))
    labels = keyed_partition_map(
        edges.map_batches(to_nodes, batch_format="pyarrow"),
        ["node"],
        lambda df: df.groupby("node", sort=False)["label"].min().reset_index(),
        num_partitions=num_partitions,
    ).materialize()
    def edge_msgs(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False)
        bb = b["id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, bb])),
                "other": pa.array(np.concatenate([bb, a])),
            }
        )

    # Loop-invariant: the endpoint fan-out depends only on the edges.
    endpoint = edges.map_batches(edge_msgs, batch_format="pyarrow").materialize()

    prev_sum = None
    converged = False
    rounds_run = 0
    # Hard cap beyond max_rounds: min-label propagation needs at most
    # graph-diameter rounds; a component deeper than max_rounds would
    # otherwise silently keep WRONG (unconverged) labels, so keep
    # iterating past max_rounds with a warning, and refuse to return
    # unconverged labels at the absolute cap.
    for _round in range(max_rounds * 4):
        # One round: for each edge emit (id_b, label(id_a)) and
        # (id_a, label(id_b)). The label lookup is a co-group: label
        # rows and edge-endpoint rows hash-partition by node, resolve
        # inside each partition, then per-node min with current labels.
        def tag_label(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"],
                    "other": pa.nulls(b.num_rows, pa.int64()),
                    "label": b["label"],
                }
            )

        def tag_endpoint(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"],
                    "other": b["other"],
                    "label": pa.nulls(b.num_rows, pa.int64()),
                }
            )

        both = labels.map_batches(tag_label, batch_format="pyarrow").union(
            endpoint.map_batches(tag_endpoint, batch_format="pyarrow")
        )

        def resolve(df: pd.DataFrame) -> pd.DataFrame:
            # Rows with label set are the label table; rows with other
            # set are edge endpoints wanting (other <- label[node]).
            lab = df.loc[df["label"].notna(), ["node", "label"]]
            ep = df.loc[df["other"].notna(), ["node", "other"]]
            m = ep.merge(lab, on="node", how="inner")
            return pd.DataFrame(
                {
                    "node": m["other"].astype(np.int64).to_numpy(),
                    "label": m["label"].astype(np.int64).to_numpy(),
                }
            )

        msgs_ds = keyed_partition_map(both, ["node"], resolve, num_partitions=num_partitions)

        merged = labels.union(msgs_ds)
        labels = keyed_partition_map(
            merged,
            ["node"],
            lambda df: df.groupby("node", sort=False)["label"].min().reset_index(),
            num_partitions=num_partitions,
        ).materialize()
        s = labels.sum("label")
        rounds_run += 1
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
        if rounds_run == max_rounds:
            import warnings

            warnings.warn(
                f"connected_components_distributed: not converged after "
                f"max_rounds={max_rounds}; continuing (component diameter "
                f"exceeds the round budget)",
                stacklevel=2,
            )
    if not converged:
        raise RuntimeError(
            f"connected_components_distributed: label propagation did not "
            f"reach a fixed point in {rounds_run} rounds — returning labels "
            f"would silently mislabel deep components"
        )
    out = labels.map_batches(
        lambda b: (
            b.rename_columns(["doc_id", "group_id"]) if b.num_columns == 2 else b
        ),
        batch_format="pyarrow",
    )
    return conform_blocks(
        out, pa.schema([("doc_id", pa.int64()), ("group_id", pa.int64())])
    )


def connected_components(pairs: pd.DataFrame, ids: np.ndarray) -> pd.DataFrame:
    """Min-label propagation on the dup graph (driver-side variant for
    small verified-dup edge sets; ``connected_components_distributed``
    is the groupby-rounds scale path used when the candidate graph is
    large). Returns (doc_id, group_id)."""
    label = {int(i): int(i) for i in ids}
    edges = list(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            m = min(label[a], label[b])
            if label[a] != m or label[b] != m:
                label[a] = label[b] = m
                changed = True
    return pd.DataFrame(
        {"doc_id": list(label.keys()), "group_id": list(label.values())}
    ).astype(np.int64)


# ------------------------------------------------------------- simhash


def simhash_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """64-bit SimHash per doc: sign of per-bit weighted sums of token
    hashes. Near-identical docs differ in few bits. Vectorized across
    the batch: flat token hashes -> (tokens, 64) bit matrix ->
    per-doc bit sums via ``add.reduceat`` (chunked by token count to
    bound the bit-matrix temporary)."""
    ids = batch[id_col]
    texts = batch[text_col].to_pylist()
    n = len(texts)
    th, counts = _token_hashes_batch(texts)
    out = np.zeros(n, dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        bitcols = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
        starts_all = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ne_idx = np.flatnonzero(nonempty)
        CH = 512  # docs per chunk (~token matrix stays cache-sized)
        for s in range(0, len(ne_idx), CH):
            docs = ne_idx[s : s + CH]
            t0 = starts_all[docs[0]]
            t1 = starts_all[docs[-1]] + counts[docs[-1]]
            bits = (th[t0:t1, None] & bitcols) != 0  # (chunk tokens, 64)
            seg = (starts_all[docs] - t0).astype(np.int64)
            sums = np.add.reduceat(bits, seg, axis=0)  # (docs, 64)
            score = sums * 2 - counts[docs][:, None]
            sh = ((score > 0) * bitcols[0]).sum(axis=1, dtype=np.uint64)
            # two's-complement reinterpret for int64 storage; hamming64
            # casts back to uint64 symmetrically.
            out[docs] = sh.astype(np.int64)
    return pa.table({id_col: ids, "simhash": pa.array(out, pa.int64())})


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.astype(np.uint64)) ^ (b.astype(np.uint64))
    # popcount via numpy bit tricks
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash_candidates(ds: Dataset, id_col: str = "doc_id", text_col: str = "text", max_hamming: int = 3) -> Dataset:
    """Banded simhash blocking: split the 64-bit fingerprint into 4
    16-bit chunks; any pair within hamming distance 3 shares at least
    one exact chunk (pigeonhole). Groupby chunk value -> verify
    hamming inside buckets."""
    sh = ds.map_batches(simhash_batch, batch_format="pyarrow", fn_kwargs=dict(id_col=id_col, text_col=text_col))

    def explode(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        h = b["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        parts = [(h >> np.uint64(16 * i)) & np.uint64(0xFFFF) for i in range(4)]
        return pa.table(
            {
                id_col: pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(h.astype(np.int64), 4)),
                "chunk_id": pa.array(np.repeat(np.arange(4, dtype=np.int32), len(ids))),
                "chunk_val": pa.array(np.concatenate(parts).astype(np.int64)),
            }
        )

    ex = sh.map_batches(explode, batch_format="pyarrow")

    def bucket_verify_partition(df: pd.DataFrame) -> pd.DataFrame:
        df, bounds = _bucket_runs(df, ["chunk_id", "chunk_val"], id_col)
        if df.empty:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype=np.int64),
                    "id_b": pd.Series(dtype=np.int64),
                    "hamming": pd.Series(dtype=np.int64),
                }
            )
        ids = df[id_col].to_numpy()
        h = df["simhash"].to_numpy()
        out_a, out_b, out_h = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            ia, ib = np.triu_indices(e - s, k=1)
            d = hamming64(h[s:e][ia], h[s:e][ib])
            keep = d <= max_hamming
            out_a.append(ids[s:e][ia][keep])
            out_b.append(ids[s:e][ib][keep])
            out_h.append(d[keep])
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_a).astype(np.int64),
                "id_b": np.concatenate(out_b).astype(np.int64),
                "hamming": np.concatenate(out_h).astype(np.int64),
            }
        )

    from engine.shuffle import keyed_partition_map

    ham_schema = PAIR_SCHEMA.append(pa.field("hamming", pa.int64()))
    pairs = keyed_partition_map(
        ex, ["chunk_id", "chunk_val"], bucket_verify_partition, out_schema=ham_schema
    )

    def min_partition(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["id_a", "id_b"], sort=False)["hamming"].min().reset_index()

    return keyed_partition_map(
        pairs, ["id_a"], min_partition, num_partitions=16, out_schema=ham_schema
    )


# ------------------------------------------------- embedding near-dup


def embedding_dup_pairs(
    ds: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    num_planes: int = 8,
    num_tables: int = 4,
) -> Dataset:
    """Cosine near-dup via multi-table random-hyperplane LSH: each of
    ``num_tables`` tables buckets by the sign pattern of its own
    ``num_planes`` hyperplanes; candidates verify exact cosine within
    buckets; a final (id_a, id_b) groupby dedups across tables. Miss
    probability for a pair at cosine c is
    (1 - (1 - acos(c)/pi)^planes)^tables — ~2e-5 at c=0.9996 with the
    defaults (pytest checks recall on planted dups)."""

    _planes_cache: dict[tuple, np.ndarray] = {}

    def bucketize(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "table_id": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                    "unit": pa.array([], pa.list_(pa.float64())),
                }
            )
        from engine.ann import _emb_matrix

        emb = _emb_matrix(b, vec_col)  # zero-copy flat-buffer reshape
        dim = emb.shape[1]
        key = (num_tables, dim, num_planes)
        planes = _planes_cache.get(key)
        if planes is None:  # deterministic; built once per worker
            planes = _planes_cache[key] = np.random.default_rng(777).standard_normal(
                (num_tables, dim, num_planes)
            )
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        unit = emb / np.maximum(norm, 1e-12)
        tabs, buckets, oids, units = [], [], [], []
        for ti in range(num_tables):
            signs = (emb @ planes[ti]) > 0
            bucket = (signs * (1 << np.arange(num_planes))).sum(axis=1).astype(np.int64)
            tabs.append(np.full(len(ids), ti, dtype=np.int32))
            buckets.append(bucket)
            oids.append(ids)
            units.append(unit)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(oids)),
                "table_id": pa.array(np.concatenate(tabs)),
                "bucket": pa.array(np.concatenate(buckets)),
                "unit": pa.array(list(np.vstack(units)), pa.list_(pa.float64())),
            }
        )

    bk = ds.map_batches(bucketize, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        if len(ids) < 2:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64), "cos_milli": pd.Series(dtype=np.int64)}
            )
        U = np.asarray([np.asarray(u) for u in g["unit"].to_numpy()[order]])
        sims = U @ U.T
        ia, ib = np.triu_indices(len(ids), k=1)
        s = sims[ia, ib]
        keep = s >= threshold
        cos_milli = np.floor(s[keep] * 1000 + 0.5).astype(np.int64)
        return pd.DataFrame({"id_a": ids[ia][keep], "id_b": ids[ib][keep], "cos_milli": cos_milli})

    from engine.shuffle import conform_blocks, keyed_partition_map

    cos_schema = PAIR_SCHEMA.append(pa.field("cos_milli", pa.int64()))
    pairs = conform_blocks(
        bk.groupby(["table_id", "bucket"]).map_groups(verify, batch_format="pandas"),
        cos_schema,
    )

    def min_partition(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["id_a", "id_b"], sort=False)["cos_milli"].min().reset_index()

    return keyed_partition_map(
        pairs, ["id_a"], min_partition, num_partitions=16, out_schema=cos_schema
    )


# Sentinel shingle hash for zero-shingle docs: lets the exploded-rows
# Jaccard treat "both sides empty" as intersection 1 / union 1 = 1.0,
# matching the scalar jaccard() empty-set convention. A real 64-bit
# hash colliding with it changes nothing material (one shingle of one
# doc would be miscounted with probability 2^-64 per doc).
_EMPTY_SENTINEL = np.int64(-0x7A5C3B2E19D08F61)


def distinct_pairs(pairs: Dataset, num_partitions: int = 16) -> Dataset:
    """Globally dedupe candidate (id_a, id_b) rows (one coarse shuffle
    keyed on id_a, so every copy of a pair co-locates). The exploded-
    rows Jaccard counts REQUIRE each pair exactly once: a duplicated
    pair doubles its (pair, hash) counts and the count-of-2
    intersection trick then scores it 1.0 regardless of similarity."""
    from engine.shuffle import keyed_partition_map

    return keyed_partition_map(
        pairs.select_columns(["id_a", "id_b"]),
        ["id_a"],
        lambda df: df.drop_duplicates(["id_a", "id_b"]),
        num_partitions=num_partitions,
        out_schema=PAIR_SCHEMA,
    )


def candidate_docs(
    ds: Dataset,
    pairs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Semi-filter the corpus to docs that are a candidate-pair
    endpoint, BEFORE any shuffle touches the text. On a dup-sparse
    100 TB corpus the candidates are a tiny fraction of the docs, so
    without this the full corpus text rides the verify's node-keyed
    shuffle only to be dropped in the partition.

    The endpoint ids are the build side of a
    :func:`engine.joins.lookup` semi join: broadcast when the distinct
    endpoints fit (the filter runs where the doc blocks already live,
    zero text movement), otherwise a Bloom-prefiltered hash-join semi.
    The result is MATERIALIZED before returning — a hash-join
    union+sort subplan nested inside the verify's own union+sort DAG
    deadlocked Ray's (2.49) streaming resource manager at the 1M-doc
    soak scale (no outputs, 0 CPU), and the candidate text is
    endpoint-scale so the break point is bounded. ``pairs`` should be
    materialized by the caller if it is also consumed elsewhere."""
    from engine.joins import lookup

    def endpoints(b: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [b["id_a"].to_numpy(zero_copy_only=False), b["id_b"].to_numpy(zero_copy_only=False)]
        )
        return pa.table({id_col: pa.array(ids.astype(np.int64))})

    eps = pairs.map_batches(endpoints, batch_format="pyarrow")
    src = ds.select_columns([id_col, text_col])
    return lookup(src, eps, id_col, how="semi").materialize()


def verify_pairs_jaccard_distributed(
    ds: Dataset,
    pairs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    shingle_k: int = 3,
    num_partitions: int = 32,
    rational_threshold: tuple[int, int] | None = None,
    emit_stats: bool = False,
    assume_distinct: bool = False,
) -> Dataset:
    """Exact-Jaccard verification of LSH candidate pairs with NO
    driver-side pair materialization: the driver never sees a pair
    (only the bounded distinct-endpoint id set when it is small enough
    to broadcast).

    ``rational_threshold=(num, den)`` applies the keep rule in exact
    cross-multiplied integers (``den*inter >= num*union``, no float
    compare) — the prefix-filtered Jaccard join's verify path.
    ``emit_stats=True`` returns Dataset[id_a, id_b, inter] (exact
    intersection sizes) instead of the bare pair columns.

    Shape (pair dedup + semi-filter + two co-grouped int64 shuffles):
      0. pairs are globally deduped (distinct_pairs — the per-pair
         counts below require uniqueness) and the corpus is
         semi-filtered to candidate endpoints (candidate_docs), so
         ONLY candidate text enters any shuffle.
      1. pair endpoints (node, id_a, id_b, side) union candidate doc
         rows (node, text), co-grouped by node: each doc is shingled
         once (vectorized, per-doc unique) and exploded to
         (id_a, id_b, shingle_hash) rows.
      2. exploded rows co-grouped by (id_a, id_b): per-pair Jaccard =
         |h seen on both sides| / (rows - that), fully vectorized
         (each side's shingle set is unique, so a (pair, hash) count
         of 2 means both sides contain it).

    Returns Dataset[id_a, id_b] of pairs with Jaccard >= threshold.
    Values identical to the scalar jaccard() path (pytest-checked)."""
    from engine.shuffle import keyed_partition_map

    # Materialized in the object store (not the driver): consumed by
    # count + endpoint extraction + the endpoints stage; pair-scale.
    # ``assume_distinct=True`` skips the dedup shuffle when the caller
    # already globally deduped AND materialized the pairs (the prefix
    # join does both) — per-pair uniqueness is REQUIRED either way.
    if not assume_distinct:
        pairs = distinct_pairs(pairs).materialize()
    cand = candidate_docs(ds, pairs, id_col, text_col)
    # The semi-filter preserves the CORPUS's block structure, leaving
    # candidate-scale rows scattered over corpus-scale block counts —
    # the downstream sorts then pay per-block overhead on mostly-empty
    # blocks (measured: coalescing halved the 1M-doc verify wall,
    # 24.3 s -> 12.5 s). Coalesce to a pair-proportional block count
    # (≥ num_partitions so the co-group still parallelizes; ~64k
    # candidate rows per block keeps blocks MB-scale at any n_pairs).
    n_pairs_total = pairs.count()  # cached: pairs is materialized
    cand = cand.repartition(
        max(num_partitions, -(-2 * n_pairs_total // 65_536))
    )

    def endpoints(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False)
        bb = b["id_b"].to_numpy(zero_copy_only=False)
        n = len(a)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, bb])),
                "text": pa.nulls(2 * n, pa.string()),
                "id_a": pa.array(np.concatenate([a, a])),
                "id_b": pa.array(np.concatenate([bb, bb])),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(n, dtype=np.int32), np.ones(n, dtype=np.int32)]
                    )
                ),
            }
        )

    ep = pairs.map_batches(endpoints, batch_format="pyarrow")

    def doc_rows(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = b.num_rows
        return pa.table(
            {
                "node": b[id_col],
                # Null text = empty doc (a null would make this row
                # classify as an endpoint in the partition fn).
                "text": pc.fill_null(b[text_col], ""),
                "id_a": pa.nulls(n, pa.int64()),
                "id_b": pa.nulls(n, pa.int64()),
                "side": pa.nulls(n, pa.int32()),
            }
        )

    docs = cand.map_batches(doc_rows, batch_format="pyarrow")

    def explode_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype=np.int64),
                "id_b": pd.Series(dtype=np.int64),
                "h": pd.Series(dtype=np.int64),
            }
        )
        # Endpoint rows carry a non-null side; doc rows never do
        # (text is null-coalesced upstream, so it cannot classify).
        is_doc = df["side"].isna()
        eps = df.loc[~is_doc, ["node", "id_a", "id_b"]]
        if eps.empty:
            return empty
        cand_nodes = pd.unique(eps["node"])
        docs_p = df.loc[is_doc & df["node"].isin(cand_nodes), ["node", "text"]]
        if docs_p.empty:
            return empty
        texts = docs_p["text"].tolist()
        sh_flat, sh_counts = _flat_shingles(texts, shingle_k)
        # Per-doc unique shingles, vectorized: lexsort (doc, hash) and
        # drop consecutive duplicates.
        n = len(texts)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), sh_counts)
        hv = sh_flat.view(np.int64)
        order = np.lexsort((hv, doc_idx))
        d_s, h_s = doc_idx[order], hv[order]
        if len(d_s):
            keep = np.ones(len(d_s), dtype=bool)
            keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
            d_u, h_u = d_s[keep], h_s[keep]
        else:
            d_u = np.zeros(0, dtype=np.int64)
            h_u = np.zeros(0, dtype=np.int64)
        u_counts = np.bincount(d_u, minlength=n).astype(np.int64)
        # Zero-shingle docs contribute one sentinel "shingle".
        zero = u_counts == 0
        if zero.any():
            d_u = np.concatenate([d_u, np.flatnonzero(zero)])
            h_u = np.concatenate(
                [h_u, np.full(int(zero.sum()), _EMPTY_SENTINEL, dtype=np.int64)]
            )
            u_counts[zero] = 1
            order2 = np.argsort(d_u, kind="stable")
            d_u, h_u = d_u[order2], h_u[order2]
        u_starts = np.concatenate([[0], np.cumsum(u_counts)[:-1]])
        # Attach each endpoint row to its doc's unique-shingle segment.
        node_to_doc = pd.Series(np.arange(n), index=docs_p["node"].to_numpy())
        ep_doc = node_to_doc.reindex(eps["node"].to_numpy())
        ok = ep_doc.notna().to_numpy()
        eps = eps.loc[ok]
        ep_doc = ep_doc.to_numpy()[ok].astype(np.int64)
        cnts = u_counts[ep_doc]
        total = int(cnts.sum())
        if total == 0:
            return empty
        local = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(cnts)[:-1]]), cnts
        )
        src = np.repeat(u_starts[ep_doc], cnts) + local
        # No side column in the exploded payload: per-side uniqueness
        # makes a (pair, hash) count of 2 mean "both sides" on its own,
        # and this is the pipeline's largest intermediate.
        return pd.DataFrame(
            {
                "id_a": np.repeat(eps["id_a"].to_numpy().astype(np.int64), cnts),
                "id_b": np.repeat(eps["id_b"].to_numpy().astype(np.int64), cnts),
                "h": h_u[src],
            }
        )

    # DAG break before the co-group: streaming a Union straight into
    # the sort wedged Ray 2.49's executor under an object-store cap
    # (operator dump: doc_rows/endpoints output-backpressured, the
    # Union forwarding 0 of its ready blocks, scheduler thread pinned
    # — observed at the 1M-doc curation soak). Cost is bounded: the
    # union is endpoint/pair-scale and the downstream sort would
    # materialize the same bytes anyway; spills under a cap.
    both_sides = docs.union(ep).materialize()
    exploded = keyed_partition_map(
        both_sides,
        ["node"],
        explode_partition,
        num_partitions=num_partitions,
        out_schema=PAIR_SCHEMA.append(pa.field("h", pa.int64())),
    )

    stats_schema = PAIR_SCHEMA.append(pa.field("inter", pa.int64()))
    out_cols = ["id_a", "id_b"] + (["inter"] if emit_stats else [])

    def jaccard_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        tot = df.groupby(["id_a", "id_b"], sort=False).size()
        dup = df.duplicated(subset=["id_a", "id_b", "h"], keep=False)
        inter = (
            df.loc[dup].groupby(["id_a", "id_b"], sort=False).size() // 2
        ).reindex(tot.index, fill_value=0)
        union = tot - inter
        if rational_threshold is not None:
            num, den = rational_threshold
            mask = den * inter >= num * union
        else:
            mask = inter / union >= threshold
        keep = inter[mask].reset_index(name="inter")
        out = {
            "id_a": keep["id_a"].to_numpy().astype(np.int64),
            "id_b": keep["id_b"].to_numpy().astype(np.int64),
        }
        if emit_stats:
            out["inter"] = keep["inter"].to_numpy().astype(np.int64)
        return pd.DataFrame(out)

    return keyed_partition_map(
        exploded,
        ["id_a", "id_b"],
        jaccard_partition,
        num_partitions=num_partitions,
        out_schema=stats_schema if emit_stats else PAIR_SCHEMA,
    )


def minhash_dedup_verdict(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    shingle_k: int = 3,
) -> Dataset:
    """Full near-dup dedup pipeline -> per-doc verdict
    (id, group_id, keep), fully distributed: candidate pairs, exact-
    Jaccard verification, connected components and the label join all
    stay Datasets — the driver never materializes pairs, labels, or a
    per-id dict (the 10^12-row shape; the earlier broadcast-dict path
    funneled every candidate pair and label through the driver).
    keep = (group_id == own id): the minimum id of each duplicate
    group survives, matching the exact-dedup A3 keep-min rule."""
    import pyarrow.compute as pc

    from engine.joins import lookup

    pairs = minhash_lsh_pairs(ds, id_col=id_col, text_col=text_col, shingle_k=shingle_k)
    verified = verify_pairs_jaccard_distributed(
        ds, pairs, id_col=id_col, text_col=text_col, threshold=threshold, shingle_k=shingle_k
    )
    # One label row per dup-graph node — small relative to the corpus
    # at any scale; lookup routes the label join (at most
    # joins.BROADCAST_MAX_KEYS labels -> broadcast, else hash_join).
    labels = connected_components_distributed(verified)
    joined = lookup(
        ds.select_columns([id_col]), labels, id_col, build_key="doc_id",
        how="left", take=["group_id"],
    )

    def verdict(batch: pa.Table) -> pa.Table:
        # pyarrow 16.1 pc.coalesce misaligns differently-chunked args
        # (see broadcast_lookup) — align before the variadic kernel
        batch = batch.combine_chunks()
        ids = batch[id_col]
        grp = pc.coalesce(batch["group_id"], ids)
        return pa.table(
            {id_col: ids, "group_id": grp, "keep": pc.equal(grp, ids)}
        )

    return joined.map_batches(verdict, batch_format="pyarrow")


def content_digests(txt: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """128-bit content digest as two independent vectorized 64-bit
    FNV-1a variants (constants pinned — VERSION-STABLE, the polars
    lesson from ADVICE r2). Shared by the exact-dedup gate query and
    the curation pipeline."""
    from engine.shuffle import _fnv1a_bytes_vectorized

    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    d1 = _fnv1a_bytes_vectorized(txt)
    d2 = _fnv1a_bytes_vectorized(
        txt,
        offset=np.uint64(0x9E3779B97F4A7C15),
        prime=np.uint64(0x100000001B3) ^ np.uint64(0xA5A5A5A5A5A5A5A4),
    )
    return d1, d2


# ------------------------------------------------ line-level exact dedup

_LINE_NO_BITS = 20  # drop keys pack as doc_id << 20 | line_no


def _doc_lines(
    text: pa.Array | pa.ChunkedArray, token_width: int | None
) -> tuple[pa.Array, np.ndarray]:
    """Split each doc into its dedup lines, fully vectorized.

    ``token_width=None``: literal newline lines (``split('\\n')`` —
    every line participates, including empties; pre-strip upstream if
    blank lines should survive dedup). ``token_width=w``: fixed
    w-token windows over ``\\S+`` tokens (the span-dedup shape used
    when the corpus has no line structure; the SQL mirror groups token
    positions by ``(p-1)//w``).

    Returns ``(flat_lines, lines_per_doc)`` — one string per line,
    concatenated in (doc, line_no) order."""
    import pyarrow.compute as pc

    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if token_width is None:
        parts = pc.split_pattern(text, "\n")
        return pc.list_flatten(parts), pc.list_value_length(parts).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
    toks = pc.split_pattern_regex(text, r"\s+")
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False).astype(bool)
    if not keep.all():  # '\s+' split edge artifacts (leading/trailing ws)
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[keep]
        flat = flat.filter(pa.array(keep))
        counts = np.bincount(doc_of, minlength=len(counts)).astype(np.int64)
    nl = -(-counts // token_width)  # ceil: trailing partial window is a line
    doc_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nl_start = np.concatenate([[0], np.cumsum(nl)[:-1]])
    total_nl = int(nl.sum())
    within = np.arange(total_nl, dtype=np.int64) - np.repeat(nl_start, nl)
    line_start = np.repeat(doc_start, nl) + within * token_width
    offsets = np.append(line_start, len(flat)).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    return pc.binary_join(lists, " "), nl


def line_dedup(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    token_width: int | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Corpus-wide line-level exact dedup (the C4 rule: a line that
    occurs more than once in the corpus survives only at its FIRST
    occurrence — min (doc_id, line_no) — all later occurrences are cut
    from their documents). EMPTY lines are exempt: blank-line
    paragraph separators are structure, not duplicate content.

    Returns Dataset[id_col, n_lines, n_dropped, text_dedup] with one
    row per input doc; text_dedup rejoins the kept lines with '\\n'
    ('' when everything was cut).

    100 TB shape, three stages:
    1. digest scan — per-block lines + 128-bit content digests
       (dedupe.content_digests); the shuffle payload is
       (d1, d2, doc_id, line_no) ≈ 32 B/line, NEVER line text;
    2. winner shuffle — one coarse keyed partition map on the digest
       pair; each partition emits only its LOSERS (every occurrence
       after the group min) as packed int64 drop keys
       (doc_id << 20 | line_no; line_no bounded at 2^20, asserted);
       drop sets are duplicate-line-scale — sparse on real corpora;
    3. rebuild scan — drop keys broadcast once (ray.put + per-block
       searchsorted, the contamination_flags pattern); each doc block
       re-derives its lines LOCALLY and rejoins the kept ones. Doc
       text never moves; only digests and drop keys do. The route
       is the ``engine.joins`` rule: at most
       ``joins.BROADCAST_MAX_KEYS`` drop keys -> broadcast; beyond
       it the BEYOND-BROADCAST path engages instead: drop keys co-group
       per doc into one packed int64 blob row (duplicate-doc-scale),
       a bucketed :func:`engine.joins.hash_join` LEFT-joins the corpus
       against that blob table on doc id (one doc-keyed reassembly
       shuffle — the only path in which doc text moves, and only
       once), and the rebuild decodes each doc's own blob locally.
       Bloom is NOT valid for this anti semantics (false positives
       would delete innocent lines); the join is exact.  Both paths
       are bit-identical (tests/test_swap_paths.py route parity).
    """
    import ray
    import pyarrow.compute as pc

    from engine import joins
    from engine.shuffle import keyed_partition_map

    def _check_ids(idv: np.ndarray) -> None:
        # Packed drop keys are doc_id << 20 | line_no: a doc_id outside
        # [0, 2^43) would overflow int64 and wrapped keys could collide
        # across documents — rebuild() would then silently delete lines
        # from innocent docs. Fail loudly instead (same policy as the
        # line_no bound).
        if len(idv) and (idv.min() < 0 or idv.max() >= (1 << (63 - _LINE_NO_BITS))):
            raise ValueError(
                f"{id_col} must be in [0, 2^{63 - _LINE_NO_BITS}) for key packing"
            )

    def digest_stage(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        _check_ids(idv)
        lines, nl = _doc_lines(b[text_col], token_width)
        if int(nl.max(initial=0)) >= (1 << _LINE_NO_BITS):
            raise ValueError(f"doc exceeds {1 << _LINE_NO_BITS} lines")
        nl_start = np.concatenate([[0], np.cumsum(nl)[:-1]])
        line_no = np.arange(len(lines), dtype=np.int64) - np.repeat(nl_start, nl)
        rep_ids = np.repeat(idv, nl)
        # EMPTY lines never enter dedup: they carry no content, and
        # deduping them corpus-wide would strip the blank-line
        # paragraph separators from every multi-paragraph doc but the
        # globally first (they also never emit meta rows — less
        # shuffle). Token-window mode produces no empty lines.
        nonempty = pc.not_equal(
            pc.binary_length(lines), 0
        ).to_numpy(zero_copy_only=False).astype(bool)
        lines = lines.filter(pa.array(nonempty))
        d1, d2 = content_digests(lines)
        return pa.table(
            {
                "d1": pa.array(d1),
                "d2": pa.array(d2),
                "doc_id_": pa.array(rep_ids[nonempty]),
                "line_no": pa.array(line_no[nonempty]),
            }
        )

    meta = ds.map_batches(digest_stage, batch_format="pyarrow")

    def losers(df):
        order = df.sort_values(["doc_id_", "line_no"], kind="stable")
        first = ~order.duplicated(["d1", "d2"], keep="first")
        out = order.loc[~first, ["doc_id_", "line_no"]]
        return pd.DataFrame(
            {"drop_key": (out["doc_id_"].to_numpy() << _LINE_NO_BITS)
             | out["line_no"].to_numpy()}
        )

    drop_ds = keyed_partition_map(
        meta,
        ["d1", "d2"],
        losers,
        num_partitions=num_partitions,
        out_schema=pa.schema([("drop_key", pa.int64())]),
    ).materialize()

    def _finish(ids: pa.Array, nl: np.ndarray, lines, dropped: np.ndarray):
        kept = lines.filter(pa.array(~dropped))
        n_drop = np.bincount(
            np.repeat(np.arange(len(nl)), nl)[dropped], minlength=len(nl)
        ).astype(np.int64)
        kept_nl = nl - n_drop
        offsets = np.append(
            np.concatenate([[0], np.cumsum(kept_nl)[:-1]]), len(kept)
        ).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept)
        text_dedup = pc.binary_join(lists, "\n")
        return pa.table(
            {
                id_col: ids,
                "n_lines": pa.array(nl),
                "n_dropped": pa.array(n_drop),
                "text_dedup": pc.fill_null(text_dedup, ""),
            }
        )

    if drop_ds.count() > joins.BROADCAST_MAX_KEYS:
        # Beyond-broadcast path: per-doc blob of dropped line numbers,
        # bucketed left hash join on doc id, local blob decode.
        def add_doc(b: pa.Table) -> pa.Table:
            dk = b["drop_key"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "_doc", pa.array((dk >> _LINE_NO_BITS).astype(np.int64))
            )

        tagged = drop_ds.map_batches(add_doc, batch_format="pyarrow")

        def pack(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                     "_drop_blob": pd.Series(dtype=object)})
            dk = np.sort(df["drop_key"].to_numpy())
            doc = (dk >> _LINE_NO_BITS).astype(np.int64)
            ln = (dk & ((1 << _LINE_NO_BITS) - 1)).astype(np.int64)
            change = np.concatenate([[True], doc[1:] != doc[:-1]])
            starts = np.flatnonzero(change)
            counts = np.diff(np.append(starts, len(doc)))
            blobs = [
                ln[s : s + c].tobytes() for s, c in zip(starts, counts)
            ]
            return pd.DataFrame({id_col: doc[starts], "_drop_blob": blobs})

        drop_tbl = keyed_partition_map(
            tagged,
            ["_doc"],
            pack,
            num_partitions=num_partitions,
            out_schema=pa.schema([(id_col, pa.int64()), ("_drop_blob", pa.binary())]),
        )
        joined = joins.hash_join(
            ds.select_columns([id_col, text_col]), drop_tbl, id_col, how="left"
        )

        def rebuild_join(b: pa.Table) -> pa.Table:
            ids = b[id_col]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
            _check_ids(idv)
            lines, nl = _doc_lines(b[text_col], token_width)
            blobs = b["_drop_blob"].to_pylist()
            n_per = np.array(
                [0 if x is None else len(x) // 8 for x in blobs], dtype=np.int64
            )
            dropped = np.zeros(len(lines), dtype=bool)
            if n_per.sum():
                flat_ln = np.frombuffer(
                    b"".join(x for x in blobs if x), dtype=np.int64
                )
                nl_start = np.concatenate([[0], np.cumsum(nl)[:-1]])
                row_of = np.repeat(np.arange(len(blobs)), n_per)
                dropped[nl_start[row_of] + flat_ln] = True
            return _finish(ids, nl, lines, dropped)

        return joined.map_batches(rebuild_join, batch_format="pyarrow")

    parts = [
        b["drop_key"].to_numpy(zero_copy_only=False)
        for b in drop_ds.iter_batches(batch_format="pyarrow")
    ]
    drops = np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    ref = ray.put(drops)

    def rebuild(b: pa.Table) -> pa.Table:
        dr = ray.get(ref)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        _check_ids(idv)
        lines, nl = _doc_lines(b[text_col], token_width)
        nl_start = np.concatenate([[0], np.cumsum(nl)[:-1]])
        line_no = np.arange(len(lines), dtype=np.int64) - np.repeat(nl_start, nl)
        keys = (np.repeat(idv, nl) << _LINE_NO_BITS) | line_no
        if len(dr) and len(keys):
            pos = np.clip(np.searchsorted(dr, keys), 0, len(dr) - 1)
            dropped = dr[pos] == keys
        else:
            dropped = np.zeros(len(keys), dtype=bool)
        return _finish(ids, nl, lines, dropped)

    return ds.map_batches(rebuild, batch_format="pyarrow")


# ------------------------------------------- incremental exact dedup

INDEX_SCHEMA = pa.schema(
    [("d1", pa.int64()), ("d2", pa.int64()), ("keep_id", pa.int64())]
)


def exact_dedup_index(
    ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
    num_partitions: int = 32,
) -> Dataset:
    """Persistable exact-dedup INDEX: one (d1, d2, keep_id) row per
    distinct content (keep_id = min id holding that content). This is
    the state an append-only ingest keeps between batches — write it
    with write_parquet, read it back for the next increment. Shuffle
    carries 24 B digests + the id, never text."""
    from engine.shuffle import keyed_partition_map

    def digest(b: pa.Table) -> pa.Table:
        d1, d2 = content_digests(b[text_col])
        return pa.table(
            {"d1": pa.array(d1), "d2": pa.array(d2), "keep_id": b[id_col]}
        )

    def keepers(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["d1", "d2"], sort=False, as_index=False)["keep_id"].min()

    return keyed_partition_map(
        ds.map_batches(digest, batch_format="pyarrow"),
        ["d1", "d2"],
        keepers,
        num_partitions=num_partitions,
        out_schema=INDEX_SCHEMA,
    )


def incremental_exact_dedup(
    new_ds: Dataset,
    index: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
) -> Dataset:
    """Exact-dedup a NEW batch against an EXISTING corpus index without
    touching the old corpus (the resumable append-only ingest shape: a
    100 TB corpus's index is digest-scale and already partitioned; each
    increment shuffles only the new batch's digests plus the index).

    Verdict per new doc: ``keep`` iff its content is absent from the
    index AND it is the min-id holder within the new batch;
    ``dup_of`` = the content's keeper (the index's keep_id when
    present, else the min new id; itself when kept). The updated index
    for the NEXT increment is ``index ∪ exact_dedup_index(kept new
    docs)`` — both digest-scale.

    One co-location shuffle: new digests (24 B + id) union the tagged
    index rows, coarse-keyed on the digest pair. Same 128-bit-digest
    collision caveat as dedup_documents (version-stable FNV pair).

    Returns Dataset[id_col, keep(bool), dup_of(int64)]."""
    from engine.shuffle import keyed_partition_map

    def digest(b: pa.Table) -> pa.Table:
        d1, d2 = content_digests(b[text_col])
        return pa.table(
            {
                "d1": pa.array(d1),
                "d2": pa.array(d2),
                "rid": b[id_col],
                "is_idx": pa.array(np.zeros(b.num_rows, dtype=bool)),
            }
        )

    tagged_new = new_ds.map_batches(digest, batch_format="pyarrow")

    def tag_index(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "d1": b["d1"],
                "d2": b["d2"],
                "rid": b["keep_id"],
                "is_idx": pa.array(np.ones(b.num_rows, dtype=bool)),
            }
        )

    both = tagged_new.union(index.map_batches(tag_index, batch_format="pyarrow"))

    _SENT = np.int64(1) << np.int64(62)  # > any id (line_dedup bounds ids < 2^43)

    def verdict(df: pd.DataFrame) -> pd.DataFrame:
        # C-speed: per-digest index/new minima via masked-sentinel
        # groupby transforms (no per-group Python).
        rid = df["rid"].to_numpy().astype(np.int64)
        if len(rid) and rid.max() >= _SENT:
            raise ValueError("ids must be < 2^62 (sentinel bound)")
        is_idx = df["is_idx"].to_numpy().astype(bool)
        work = df.assign(
            _i=np.where(is_idx, rid, _SENT), _n=np.where(~is_idx, rid, _SENT)
        )
        g = work.groupby(["d1", "d2"], sort=False)
        im = g["_i"].transform("min").to_numpy()
        nm = g["_n"].transform("min").to_numpy()
        has_idx = im < _SENT
        new_rows = ~is_idx
        keep = new_rows & ~has_idx & (rid == nm)
        dup_of = np.where(has_idx, im, nm).astype(np.int64)
        return pd.DataFrame(
            {id_col: rid[new_rows], "keep": keep[new_rows], "dup_of": dup_of[new_rows]}
        )

    return keyed_partition_map(
        both,
        ["d1", "d2"],
        verdict,
        num_partitions=num_partitions,
        out_schema=pa.schema(
            [(id_col, pa.int64()), ("keep", pa.bool_()), ("dup_of", pa.int64())]
        ),
    )


def corpus_diff(index_a: Dataset, index_b: Dataset, num_partitions: int = 32) -> Dataset:
    """Content-level diff of two corpus snapshots given their
    exact-dedup indexes (dataset versioning: what changed between
    crawl N and crawl N+1). Per distinct content: status `added`
    (only in B), `removed` (only in A) or `common`, with each side's
    keeper id (-1 when absent). Works purely on the digest-scale
    indexes — neither corpus's text is read, the one shuffle moves
    (digest, id) rows. Summarize downstream with a combiner groupby.

    Returns Dataset[status, id_a, id_b]."""
    from engine.shuffle import keyed_partition_map

    _SENT = np.int64(1) << np.int64(62)

    def tag(side_a: bool):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "d1": b["d1"],
                    "d2": b["d2"],
                    "rid": b["keep_id"],
                    "is_a": pa.array(np.full(b.num_rows, side_a)),
                }
            )

        return f

    both = index_a.map_batches(tag(True), batch_format="pyarrow").union(
        index_b.map_batches(tag(False), batch_format="pyarrow")
    )

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        rid = df["rid"].to_numpy().astype(np.int64)
        if len(rid) and rid.max() >= _SENT:
            raise ValueError("ids must be < 2^62 (sentinel bound)")
        is_a = df["is_a"].to_numpy().astype(bool)
        # one groupby agg pass: output is per-GROUP (unlike
        # incremental_exact_dedup, which needs per-row verdicts and so
        # uses transforms)
        work = df.assign(
            _a=np.where(is_a, rid, _SENT), _b=np.where(~is_a, rid, _SENT)
        )
        g = work.groupby(["d1", "d2"], sort=False, as_index=False).agg(
            _a=("_a", "min"), _b=("_b", "min")
        )
        ia = g["_a"].to_numpy()
        ib = g["_b"].to_numpy()
        status = np.where(
            ia < _SENT, np.where(ib < _SENT, "common", "removed"), "added"
        )
        return pd.DataFrame(
            {
                "status": status,
                "id_a": np.where(ia < _SENT, ia, -1).astype(np.int64),
                "id_b": np.where(ib < _SENT, ib, -1).astype(np.int64),
            }
        )

    return keyed_partition_map(
        both,
        ["d1", "d2"],
        diff,
        num_partitions=num_partitions,
        out_schema=pa.schema(
            [("status", pa.string()), ("id_a", pa.int64()), ("id_b", pa.int64())]
        ),
    )


# --------------------------------- exact repeated-substring removal
#
# The ExactSubstr dedup family (Lee et al. 2022, "Deduplicating
# Training Data Makes Language Models Better"): any L-token span whose
# content occurs more than once in the corpus is removed from every
# occurrence EXCEPT the canonical first one (global min (doc_id,
# start)).  A token position is removed iff some duplicated,
# non-canonical window covers it; canonical windows keep their
# positions unless another duplicated window also covers them.  The
# published method builds a monolithic suffix array; the Ray-Data
# shape below reaches the same duplicated-window set with stride-1
# rolling digests and two digest-scale passes — no suffix array, no
# corpus-text shuffle.

_WIN_POS_BITS = 21  # span keys pack as doc_id << 21 | tok_start


def _window_digests(texts_flat_tokens, counts: np.ndarray, L: int):
    """Two independent 64-bit rolling digests for every in-doc L-token
    window (stride 1) over the flat token-hash array.  Windows
    crossing doc boundaries exist in the rolling accumulator but are
    never selected.  Work is L fused multiply-adds over the flat
    array (L is small; the B^-1 prefix trick would make it O(1) per
    window).  Returns (h1, h2, win_counts)."""
    th = texts_flat_tokens
    with np.errstate(over="ignore"):
        th2 = (th ^ (th >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        th2 = (th2 ^ (th2 >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        th2 = th2 ^ (th2 >> np.uint64(31))
    win_counts = np.where(counts >= L, counts - L + 1, 0).astype(np.int64)
    total = int(counts.sum())
    total_w = int(win_counts.sum())
    if total_w == 0:
        z = np.zeros(0, dtype=np.uint64)
        return z, z, win_counts
    with np.errstate(over="ignore"):
        acc1 = th[: total - L + 1].copy()
        acc2 = th2[: total - L + 1].copy()
        P2 = np.uint64(0x9E3779B97F4A7C15)
        for j in range(1, L):
            acc1 = acc1 * FNV_PRIME + th[j : total - L + 1 + j]
            acc2 = acc2 * P2 + th2[j : total - L + 1 + j]
    tok_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    w_starts = np.concatenate([[0], np.cumsum(win_counts)[:-1]])
    local = np.arange(total_w, dtype=np.int64) - np.repeat(w_starts, win_counts)
    src = np.repeat(tok_starts, win_counts) + local
    return acc1[src], acc2[src], win_counts


def _doc_tokens_arrow(text) -> tuple[pa.Array, np.ndarray]:
    """RE2 \\S+ tokens of every doc (split + empty-artifact filter —
    the _doc_lines/chunk_batch equivalence), as a flat Arrow string
    array + per-doc counts.  Arrow-side splitting keeps positions
    aligned with the DuckDB mirror even for non-ASCII whitespace."""
    import pyarrow.compute as pc

    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(text, r"\s+")
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False).astype(bool)
    if not keep.all():
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[keep]
        flat = flat.filter(pa.array(keep))
        counts = np.bincount(doc_of, minlength=len(counts)).astype(np.int64)
    return flat, counts


def exact_substring_dedup(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    L: int = 15,
    num_partitions: int = 32,
) -> Dataset:
    """Remove every duplicated L-token span from all but its canonical
    first occurrence.  Output per doc: ``id_col, n_toks, n_removed,
    kept_text, kept_chars`` (kept tokens joined by one space; exact
    ints; '' when everything is removed or the doc is empty).

    Scale shape (100 TB):
    1. DUP-DIGEST DISCOVERY, combiner-style: one map pass computes
       stride-1 rolling window digests and emits per-block (h1, cnt)
       PARTIALS (distinct digests per block, run-length counted);
       grouped_count_sums merges partials — the shuffle moves partial
       rows, never the token-scale window list.  h1-only counting is
       a no-false-negative superset filter (a duplicated window's h1
       total is >= 2; h1-collision riders are eliminated in pass 2).
    2. OCCURRENCES of dup digests only: a second map pass re-derives
       windows and keeps those whose h1 is in the dup-digest table —
       one :func:`engine.joins.lookup` semi join, so the route is the
       ``engine.joins`` rule (at most ``joins.BROADCAST_MAX_KEYS``
       dup digests -> broadcast searchsorted; beyond it a
       Bloom-prefiltered hash join, which shuffles only the probable
       dups) — at web scale the duplicated fraction (boilerplate) is a
       small tail of all windows, so this shuffle is candidate-scale
       (h1, h2, packed (doc,start)) ints.  One co-partition on
       (h1, h2) picks the canonical min occurrence per digest and
       emits the rest as removal spans; within-subset group sizes
       equal global counts because an h1 match takes ALL of a
       digest's occurrences or none.
    3. REBUILD, broadcast + local (the line_dedup contract): removal
       span keys (doc_id << 21 | start, deduped + sorted) broadcast
       once via ray.put; a final map pass over the corpus marks
       covered positions with a difference array (+1 at start, -1 at
       min(start+L, n)) and rebuilds kept text zero-copy (ListArray
       offsets + binary_join).

    Beyond ``joins.BROADCAST_MAX_KEYS`` removal spans, pass 3 swaps
    to its co-partitioned variant: the spans co-group per doc into
    one packed int64 blob row joined back on doc id via
    :func:`engine.joins.hash_join` (the line_dedup reassembly shape —
    the only path where doc text enters a shuffle, once). Each pass
    routes by its own size; both routes are bit-identical
    (tests/test_swap_paths.py route parity).

    Exactness is digest-level (two independent 64-bit rolling hashes,
    the dedup_documents/content_digests precedent); the DuckDB mirror
    groups by the literal window text and agrees bit-for-bit on the
    gate corpora.  Canonical rule: ROW_NUMBER() OVER (PARTITION BY
    window ORDER BY doc_id, start) == 1 survives.

    Sizing note: ``num_partitions`` shards the pass-1 digest merge,
    whose partial rows are ~16 B; at test scale pick P so each block's
    per-partition slice exceeds Ray's 100 KB inline-object threshold
    or the inline sub-blocks park on the driver heap (the pathology
    documented on engine/shuffle.py::keyed_partition_map — measured
    2.2 GB driver RSS at P=64 vs 0.39 GB at P=16 on a 26M-digest
    corpus; production 128 MB blocks are immune).
    """
    import ray
    import pyarrow.compute as pc

    from engine import joins
    from engine.shuffle import grouped_count_sums, keyed_partition_map

    def win_partials(b: pa.Table) -> pa.Table:
        flat, counts = _doc_tokens_arrow(b[text_col])
        th = _fnv1a_tokens(pc.cast(flat, pa.binary()).to_pylist())
        h1, _h2, _wc = _window_digests(th, counts, L)
        if len(h1) == 0:
            return pa.table({"h1": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        v = np.sort(h1.view(np.int64))
        new = np.ones(len(v), dtype=bool)
        new[1:] = v[1:] != v[:-1]
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, len(v))).astype(np.int64)
        return pa.table({"h1": pa.array(v[starts]), "cnt": pa.array(cnt)})

    partials = ds.map_batches(win_partials, batch_format="pyarrow")
    totals = grouped_count_sums(partials, "h1", sum_cols=["cnt"],
                                num_partitions=num_partitions)
    dup_tbl = totals.filter(expr="sum_cnt >= 2").select_columns(["h1"])

    def occurrences(b: pa.Table) -> pa.Table:
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        if len(idv) and (idv.min() < 0 or idv.max() >= (1 << (63 - _WIN_POS_BITS))):
            raise ValueError("doc ids must fit 63 - _WIN_POS_BITS bits")
        flat, counts = _doc_tokens_arrow(b[text_col])
        if len(counts) and counts.max() >= (1 << _WIN_POS_BITS):
            raise ValueError("doc token count exceeds _WIN_POS_BITS")
        th = _fnv1a_tokens(pc.cast(flat, pa.binary()).to_pylist())
        h1, h2, wc = _window_digests(th, counts, L)
        w_starts = np.concatenate([[0], np.cumsum(wc)[:-1]])
        start = np.arange(len(h1), dtype=np.int64) - np.repeat(w_starts, wc)
        key = (np.repeat(idv, wc) << _WIN_POS_BITS) | start
        return pa.table({"h1": pa.array(h1.view(np.int64)),
                         "h2": pa.array(h2.view(np.int64)),
                         "span_key": pa.array(key)})

    occ = joins.lookup(
        ds.map_batches(occurrences, batch_format="pyarrow"), dup_tbl, "h1", how="semi"
    )

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        order = df.sort_values(["h1", "h2", "span_key"], kind="stable")
        grp = order.groupby(["h1", "h2"], sort=False)
        sizes = grp["span_key"].transform("size")
        first = ~order.duplicated(["h1", "h2"], keep="first")
        out = order.loc[(sizes >= 2) & ~first, ["span_key"]]
        return pd.DataFrame({"span_key": out["span_key"].to_numpy()})

    drop_ds = keyed_partition_map(
        occ, ["h1", "h2"], losers, num_partitions=num_partitions,
        out_schema=pa.schema([("span_key", pa.int64())]),
    ).materialize()

    def _finish_sub(ids, counts: np.ndarray, flat, removed: np.ndarray):
        kept = flat.filter(pa.array(~removed))
        n_rm = np.bincount(
            np.repeat(np.arange(len(counts)), counts)[removed],
            minlength=len(counts)).astype(np.int64)
        kept_n = counts - n_rm
        offsets = np.append(
            np.concatenate([[0], np.cumsum(kept_n)[:-1]]), len(kept)
        ).astype(np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32), pa.int32()), kept)
        kept_text = pc.fill_null(pc.binary_join(lists, " "), "")
        return pa.table({
            id_col: ids,
            "n_toks": pa.array(counts),
            "n_removed": pa.array(n_rm),
            "kept_text": kept_text,
            "kept_chars": pc.cast(pc.utf8_length(kept_text), pa.int64()),
        })

    if drop_ds.count() > joins.BROADCAST_MAX_KEYS:
        # Beyond-broadcast spans: per-doc blob of local start positions,
        # bucketed left hash join on doc id, local difference-array mark.
        def add_doc(b: pa.Table) -> pa.Table:
            sk = b["span_key"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "_doc", pa.array((sk >> _WIN_POS_BITS).astype(np.int64))
            )

        tagged = drop_ds.map_batches(add_doc, batch_format="pyarrow")

        def pack(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                     "_span_blob": pd.Series(dtype=object)})
            sk = np.sort(df["span_key"].to_numpy())
            doc = (sk >> _WIN_POS_BITS).astype(np.int64)
            st = (sk & ((1 << _WIN_POS_BITS) - 1)).astype(np.int64)
            change = np.concatenate([[True], doc[1:] != doc[:-1]])
            starts = np.flatnonzero(change)
            cnts = np.diff(np.append(starts, len(doc)))
            blobs = [st[s : s + c].tobytes() for s, c in zip(starts, cnts)]
            return pd.DataFrame({id_col: doc[starts], "_span_blob": blobs})

        span_tbl = keyed_partition_map(
            tagged, ["_doc"], pack, num_partitions=num_partitions,
            out_schema=pa.schema(
                [(id_col, pa.int64()), ("_span_blob", pa.binary())]
            ),
        )
        joined = joins.hash_join(
            ds.select_columns([id_col, text_col]), span_tbl, id_col, how="left"
        )

        def rebuild_join(b: pa.Table) -> pa.Table:
            ids = b[id_col]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            flat, counts = _doc_tokens_arrow(b[text_col])
            total = int(counts.sum())
            doc_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            blobs = b["_span_blob"].to_pylist()
            n_per = np.array(
                [0 if x is None else len(x) // 8 for x in blobs], dtype=np.int64
            )
            removed = np.zeros(total, dtype=bool)
            if n_per.sum():
                s = np.frombuffer(
                    b"".join(x for x in blobs if x), dtype=np.int64
                )
                doc_of_sp = np.repeat(np.arange(len(blobs)), n_per)
                ds_ = doc_starts[doc_of_sp]
                e = np.minimum(s + L, counts[doc_of_sp])
                diff = np.zeros(total + 1, dtype=np.int64)
                np.add.at(diff, ds_ + s, 1)
                np.add.at(diff, ds_ + e, -1)
                removed = np.cumsum(diff[:-1]) > 0
            return _finish_sub(ids, counts, flat, removed)

        return joined.map_batches(rebuild_join, batch_format="pyarrow")

    parts = [
        b["span_key"].to_numpy(zero_copy_only=False)
        for b in drop_ds.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    spans = np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    span_ref = ray.put(spans)

    def rebuild(b: pa.Table) -> pa.Table:
        sp = ray.get(span_ref)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        flat, counts = _doc_tokens_arrow(b[text_col])
        total = int(counts.sum())
        doc_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        removed = np.zeros(total, dtype=bool)
        if len(sp) and len(idv):
            lo = np.searchsorted(sp, idv << _WIN_POS_BITS)
            hi = np.searchsorted(sp, (idv + 1) << _WIN_POS_BITS)
            n_sp = hi - lo
            if n_sp.sum():
                doc_of_sp = np.repeat(np.arange(len(idv)), n_sp)
                sp_starts = np.concatenate([[0], np.cumsum(n_sp)[:-1]])
                idx = (np.arange(int(n_sp.sum()), dtype=np.int64)
                       - np.repeat(sp_starts, n_sp) + np.repeat(lo, n_sp))
                sp_local = sp[idx]
                s = (sp_local & ((1 << _WIN_POS_BITS) - 1))
                ds_ = doc_starts[doc_of_sp]
                e = np.minimum(s + L, counts[doc_of_sp])
                diff = np.zeros(total + 1, dtype=np.int64)
                np.add.at(diff, ds_ + s, 1)
                np.add.at(diff, ds_ + e, -1)
                removed = np.cumsum(diff[:-1]) > 0
        return _finish_sub(ids, counts, flat, removed)

    return ds.map_batches(rebuild, batch_format="pyarrow")


# ---------------------------------------- incremental MinHash near-dup (X50)

SIG_INDEX_SCHEMA = pa.schema(
    [("keep_id", pa.int64()), ("sig", pa.binary()), ("bh", pa.binary())]
)


def _pack_u64_rows(m: np.ndarray) -> pa.Array:
    """Pack an (n, w) uint64 matrix as an Arrow binary column (one
    8*w-byte blob per row) with zero per-row Python: one contiguous
    data buffer + an arange offset vector. Binary (not fixed_size_list)
    so the column survives acero hash joins and pandas round-trips
    untouched."""
    n, w = m.shape
    data = pa.py_buffer(np.ascontiguousarray(m).tobytes())
    offsets = pa.py_buffer((np.arange(n + 1, dtype=np.int32) * (8 * w)).tobytes())
    return pa.BinaryArray.from_buffers(pa.binary(), n, [None, offsets, data])


def _unpack_u64_rows(arr: pa.Array | pa.ChunkedArray, w: int) -> np.ndarray:
    """Inverse of _pack_u64_rows: (n, w) uint64 view of a binary
    column whose rows are all exactly 8*w bytes."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros((0, w), dtype=np.uint64)
    # offsets buffer is shared on slices: skip arr.offset leading entries
    offs = np.frombuffer(
        arr.buffers()[1], dtype=np.int32, count=n + 1, offset=4 * arr.offset
    )
    widths = np.diff(offs)
    if not (widths == 8 * w).all():
        raise ValueError(f"expected uniform {8 * w}-byte rows")
    flat = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return (
        flat[offs[0] : offs[0] + n * 8 * w].view(np.uint64).reshape(n, w)
    )


def minhash_index(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
) -> Dataset:
    """Persistable near-dup SIGNATURE INDEX: one row per doc —
    ``(keep_id, sig: binary 8*num_perm B, bh: binary 8*bands B)``.
    This is the state a continuously-ingested corpus keeps between
    crawls for NEAR-dup (the exact-dedup sibling is
    ``exact_dedup_index``): ~(num_perm+bands)*8 B/doc (640 B at the
    defaults), written once with write_parquet and re-read per
    increment — the old corpus TEXT is never re-read. Feed it the
    corpus's KEPT docs (run ``minhash_dedup_verdict`` /
    ``incremental_minhash_dedup`` first so near-dup groups are already
    collapsed to their keeper). Zero shuffles: one vectorized map
    stage (the ``_sig_matrix`` reduceat kernel, bit-identical to
    ``minhash_batch``)."""

    def build(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        texts = b[text_col].to_pylist()
        sig = _sig_matrix(texts, num_perm=num_perm, shingle_k=shingle_k)
        bh = _band_hashes(sig, bands).astype(np.uint64)
        return pa.table(
            {
                "keep_id": pc.cast(ids, pa.int64()),
                "sig": _pack_u64_rows(sig),
                "bh": _pack_u64_rows(bh),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow")


#: incremental_minhash_dedup verifies on the driver when the distinct
#: candidate pairs are at most this many (one collect of the pair list
#: and an endpoint-restricted signature gather); above it two hash
#: joins attach the signatures. Read at call time, so tests can pin it.
VERIFY_LOCAL_MAX_PAIRS = 200_000


def incremental_minhash_dedup(
    new_ds: Dataset,
    index: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    rational_threshold: tuple[int, int] = (1, 2),
    num_partitions: int = 32,
) -> Dataset:
    """Near-dup a NEW crawl increment against an EXISTING corpus's
    persisted minhash signature index WITHOUT re-reading old text —
    the steady-state web-crawl ingest design (the near-dup sibling of
    ``incremental_exact_dedup``/X24; RefinedWeb/CCNet run exactly this
    shape between snapshots).

    Pipeline (all Datasets, every shuffle candidate- or
    signature-scale):
      1. signatures+band hashes for the new batch (one map stage);
      2. LSH candidates: both sides' (band, band_hash, id) rows —
         17 B/row, bands rows/doc — co-partition on the bucket key;
         within a partition one pandas hash-merge cross-pairs each
         bucket's index x new rows. Pairs that collide in several
         bands surface once per band: the verdict is DUPLICATE-
         INSENSITIVE (verify is per-row deterministic and the final
         group-min absorbs repeats), so no global pair dedup is paid
         on the fast path;
      3. verify: when the candidate set fits the documented guard
         (``VERIFY_LOCAL_MAX_PAIRS``), both endpoints' signatures are
         gathered by an endpoint-restricted filter of the signature
         tables and broadcast ONCE (ray.put; candidate-endpoint scale
         — the candidate_docs idiom), and each pair batch verifies by
         two searchsorted lookups + a vectorized equal-position
         count; beyond the guard, two bucketed hash joins attach the
         signature blobs instead (same verdict, zero broadcast).
         Decision is the standard MinHash estimate in EXACT integer
         form:
         matches/num_perm >= num/den  <=>  den*matches >= num*num_perm
         — no float compare, so the DuckDB mirror matches bitwise.
         (The index stores no shingle sets, so the estimate — not
         exact Jaccard — is the verify rule; with 64 perms the
         estimator's std-err is ~6% and both engines compute the
         IDENTICAL rule on IDENTICAL signatures, so the gate is still
         value-exact. Recall/decision behavior is pytest-checked
         against per-doc scalar signatures.)
      4. verdict per new doc: ``keep`` iff no verified index match;
         ``dup_of`` = MIN matching index keep_id (deterministic), own
         id when kept.

    Within-batch near-dups are deliberately out of scope here: run
    ``minhash_dedup_verdict`` on the increment first (compose), then
    extend the index with ``minhash_index(kept)`` — both documented in
    tools/ingest_soak.py's lifecycle.

    Empty-token docs carry the all-MASK64 sentinel signature and
    would all "match" each other; like the in-window minhash mirror,
    the gate corpus plants none (pre-filter empties upstream).

    Returns Dataset[id_col, keep(bool), dup_of(int64)]."""
    import ray

    from engine.joins import broadcast_lookup, hash_join, lookup
    from engine.shuffle import keyed_partition_map

    num, den = rational_threshold

    new_sigs = minhash_index(
        new_ds, id_col=id_col, text_col=text_col,
        num_perm=num_perm, bands=bands, shingle_k=shingle_k,
    ).materialize()  # used twice (band explode + sig attach): signature-scale

    def explode_bands(is_idx: bool):
        flag = np.uint8(1 if is_idx else 0)

        def fn(b: pa.Table) -> pa.Table:
            n = b.num_rows
            bh = _unpack_u64_rows(b["bh"], bands).astype(np.int64)
            ids = b["keep_id"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                    "band_hash": pa.array(bh.ravel()),
                    "rid": pa.array(np.repeat(ids, bands)),
                    "is_idx": pa.array(np.full(n * bands, flag)),
                }
            )

        return fn

    band_rows = index.map_batches(explode_bands(True), batch_format="pyarrow").union(
        new_sigs.map_batches(explode_bands(False), batch_format="pyarrow")
    ).materialize()  # 17 B/row band rows; Union feeding the co-partition
    # sort trickles under backpressure (Ray 2.49 — the cdc/both_sides
    # wedge), and the break is band-row scale, far below text scale

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        idx = df[df["is_idx"] == 1]
        new = df[df["is_idx"] == 0]
        if idx.empty or new.empty:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64)}
            )
        # one C-speed hash merge == per-(band, band_hash) bucket cross
        m = idx[["band", "band_hash", "rid"]].merge(
            new[["band", "band_hash", "rid"]],
            on=["band", "band_hash"],
            suffixes=("_i", "_n"),
        )
        out = m[["rid_i", "rid_n"]].drop_duplicates()
        return pd.DataFrame(
            {
                "id_a": out["rid_i"].to_numpy().astype(np.int64),
                "id_b": out["rid_n"].to_numpy().astype(np.int64),
            }
        )

    # size the bucket co-partition to the KNOWN band-row count so
    # small inputs don't shatter into sub-100KB inline objects (the
    # keyed_partition_map sizing rule): ~64k 17-B rows per partition
    n_band_rows = (index.count() + new_sigs.count()) * bands
    parts = int(max(8, min(num_partitions, n_band_rows // 65536)))
    pairs = keyed_partition_map(
        band_rows,
        ["band", "band_hash"],
        bucket_pairs,
        num_partitions=parts,
        out_schema=PAIR_SCHEMA,
    ).materialize()  # candidate-scale DAG break (count + verify read it)
    n_pairs = pairs.count()
    if n_pairs > VERIFY_LOCAL_MAX_PAIRS:
        # raw pairs repeat once per colliding band (dup-heavy inputs
        # inflate them up to bands x): dedup globally, then re-check —
        # the broadcast verify is usually still viable
        pairs = distinct_pairs(
            pairs, num_partitions=max(8, num_partitions // 2)
        ).materialize()
        n_pairs = pairs.count()

    lab_tbl: pa.Table | None = None
    if n_pairs <= VERIFY_LOCAL_MAX_PAIRS:
        # Broadcast regime == the pair list is driver-bounded by
        # definition, so collect it ONCE and finish the verify AND the
        # per-new-doc min-keeper driver-side (r5 latency trim: the
        # former shape paid a verify map stage + a keeper co-partition
        # + two extra materialize/count round trips on candidate-scale
        # data; the sig gathers below stay endpoint-restricted maps).
        pbatches = list(
            pairs.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        pt = (
            pa.concat_tables(pbatches, promote_options="default")
            if pbatches
            else PAIR_SCHEMA.empty_table()
        )
        ia_all = pt["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        ib_all = pt["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)

        def _gather(sig_ds: Dataset, ids_sorted: np.ndarray):
            def filt(b: pa.Table) -> pa.Table:
                k = b["keep_id"].to_numpy(zero_copy_only=False)
                if len(ids_sorted) == 0:
                    return b.slice(0, 0)
                pos = np.minimum(
                    np.searchsorted(ids_sorted, k), len(ids_sorted) - 1
                )
                return b.filter(pa.array(ids_sorted[pos] == k))

            tbls = list(
                sig_ds.map_batches(filt, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
            if not tbls:
                return np.array([], np.int64), np.zeros((0, num_perm), np.uint64)
            t = pa.concat_tables(tbls, promote_options="default")
            ids = t["keep_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="stable")
            return ids[order], _unpack_u64_rows(t["sig"], num_perm)[order]

        ai, asig = _gather(index, np.unique(ia_all))
        bi, bsig = _gather(new_sigs, np.unique(ib_all))
        if len(ia_all):
            if len(ai) == 0 or len(bi) == 0:
                raise RuntimeError("pair endpoint missing from signature table")
            pa_ = np.minimum(np.searchsorted(ai, ia_all), len(ai) - 1)
            pb_ = np.minimum(np.searchsorted(bi, ib_all), len(bi) - 1)
            if (ai[pa_] != ia_all).any() or (bi[pb_] != ib_all).any():
                raise RuntimeError("pair endpoint missing from signature table")
            matches = (asig[pa_] == bsig[pb_]).sum(axis=1).astype(np.int64)
            ok = den * matches >= num * num_perm
            mb, ma = ib_all[ok], ia_all[ok]
            order = np.lexsort((ma, mb))
            mb, ma = mb[order], ma[order]
            first = np.r_[True, mb[1:] != mb[:-1]] if len(mb) else np.zeros(0, bool)
            lab_tbl = pa.table(
                {"id_b": pa.array(mb[first]), "dup_idx": pa.array(ma[first])}
            )
        else:
            lab_tbl = pa.schema(
                [("id_b", pa.int64()), ("dup_idx", pa.int64())]
            ).empty_table()
    else:
        # distributed path (pairs already globally distinct): two
        # bucketed hash joins attach the signature blobs
        def rename_sigs(new_id: str, new_sig: str):
            def fn(b: pa.Table) -> pa.Table:
                return pa.table({new_id: b["keep_id"], new_sig: b["sig"]})

            return fn

        j1 = hash_join(
            pairs,
            new_sigs.map_batches(rename_sigs("id_b", "sig_b"), batch_format="pyarrow"),
            key="id_b",
            how="inner",
        ).materialize()
        j2 = hash_join(
            j1,
            index.map_batches(rename_sigs("id_a", "sig_a"), batch_format="pyarrow"),
            key="id_a",
            how="inner",
        )

        def verify(b: pa.Table) -> pa.Table:
            sa = _unpack_u64_rows(b["sig_a"], num_perm)
            sb = _unpack_u64_rows(b["sig_b"], num_perm)
            matches = (sa == sb).sum(axis=1).astype(np.int64)
            ok = den * matches >= num * num_perm
            keep_cols = pa.table({"id_a": b["id_a"], "id_b": b["id_b"]})
            return keep_cols.filter(pa.array(ok))

        matched = j2.map_batches(verify, batch_format="pyarrow")

        def min_keeper(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("id_b", sort=False, as_index=False)["id_a"].min()
            return pd.DataFrame(
                {
                    "id_b": g["id_b"].to_numpy().astype(np.int64),
                    "dup_idx": g["id_a"].to_numpy().astype(np.int64),
                }
            )

        labels = keyed_partition_map(
            matched,
            ["id_b"],
            min_keeper,
            num_partitions=int(max(8, min(num_partitions, n_pairs // 65536))),
            out_schema=pa.schema([("id_b", pa.int64()), ("dup_idx", pa.int64())]),
        )  # matched-doc scale; lookup routes the label join

    # derive the id roll from the MATERIALIZED signature table — not
    # from new_ds, whose lineage would re-execute the whole increment
    # read/transform just to list its ids
    new_ids = new_sigs.map_batches(
        lambda b: pa.table({id_col: b["keep_id"]}), batch_format="pyarrow"
    )
    if lab_tbl is not None:
        joined = broadcast_lookup(new_ids, lab_tbl, id_col, "id_b", ["dup_idx"], how="left")
    else:
        joined = lookup(
            new_ids, labels, id_col, build_key="id_b", how="left", take=["dup_idx"]
        )

    def verdict(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # pyarrow 16.1 pc.coalesce misaligns differently-chunked args
        # (see broadcast_lookup) — align before the variadic kernel
        b = b.combine_chunks()
        ids = b[id_col]
        dup = pc.coalesce(b["dup_idx"], pc.cast(ids, pa.int64()))
        return pa.table(
            {
                id_col: ids,
                "keep": pc.is_null(b["dup_idx"]),
                "dup_of": pc.cast(dup, pa.int64()),
            }
        )

    return joined.map_batches(verdict, batch_format="pyarrow")
