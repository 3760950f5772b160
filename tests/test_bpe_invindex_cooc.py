"""X52 BPE merges / X53 inverted postings / X54 co-occurrence lift:
independent scalar brute-force oracles (classic reference
implementations, no shared code with the engine kernels), adversarial
merge-overlap corpora, block-layout invariance, and the sf0.001 DuckDB
mirrors."""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------ scalar reference BPE


def ref_bpe(texts: list[str], n_merges: int) -> list[tuple]:
    """Classic Sennrich-style BPE: word counts, overlapping pair stats,
    greedy-leftmost merge application, (count DESC, pair ASC) ties."""
    wc = Counter()
    for t in texts:
        wc.update(re.findall(r"[a-z0-9]+", t.lower()))
    words = {w: list(w) for w in wc}
    merges = []
    for step in range(1, n_merges + 1):
        stats = Counter()
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                stats[(syms[i], syms[i + 1])] += wc[w]
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append((step, best[0], best[1], best[0] + best[1], stats[best]))
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


ADVERSARIAL = [
    "abab abab ababab",       # adjacent merge sites sharing boundaries
    "aaa aaaa aa",            # overlapping runs (leftmost-first rule)
    "low lower lowest low",   # classic BPE example
    "abab cdcd abcd",         # competing pairs, tie candidates
    "zz zz zz yzzy",
]


def test_bpe_matches_reference_on_adversarial_corpus(ray_session):
    from engine.bpe import bpe_merges

    ds = rd.from_arrow(pa.table({"text": ADVERSARIAL}))
    got = bpe_merges(ds, n_merges=6).to_pandas()
    want = pd.DataFrame(
        ref_bpe(ADVERSARIAL, 6),
        columns=["step", "lhs", "rhs", "merged", "pair_cnt"],
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bpe_local_and_distributed_paths_equal(ray_session, monkeypatch):
    import engine.bpe as bpe

    texts = ADVERSARIAL * 4
    ds = rd.from_arrow(pa.table({"text": texts})).repartition(5)
    loc = bpe.bpe_merges(ds, n_merges=5).to_pandas()
    monkeypatch.setattr(bpe, "LOCAL_VOCAB_LIMIT", 0)  # forces the distributed loop
    dist = bpe.bpe_merges(ds, n_merges=5).to_pandas()
    pd.testing.assert_frame_equal(loc, dist)
    want = pd.DataFrame(
        ref_bpe(texts, 5), columns=["step", "lhs", "rhs", "merged", "pair_cnt"]
    )
    pd.testing.assert_frame_equal(loc, want, check_dtype=False)


def test_bpe_block_layout_invariance(ray_session):
    from engine.bpe import bpe_merges

    texts = ADVERSARIAL * 3
    one = bpe_merges(rd.from_arrow(pa.table({"text": texts})), n_merges=4).to_pandas()
    many = bpe_merges(
        rd.from_arrow(pa.table({"text": texts})).repartition(7), n_merges=4
    ).to_pandas()
    pd.testing.assert_frame_equal(one, many)


def test_bpe_sql_mirror_sf0001(ray_session):
    from engine.bpe import bpe_merges, sql_bpe_merges

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    got = bpe_merges(ds, n_merges=5).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(sql_bpe_merges(5)).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # and equal to the scalar reference on the same corpus
    texts = con.execute("SELECT text FROM documents").df()["text"].tolist()
    ref = pd.DataFrame(
        ref_bpe(texts, 5), columns=["step", "lhs", "rhs", "merged", "pair_cnt"]
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def ref_encode_counts(texts: list[str], n_merges: int) -> pd.DataFrame:
    """Classic BPE train + apply: per-doc (n_words, n_bpe_tokens)."""
    wc = Counter()
    docs = []
    for t in texts:
        toks = re.findall(r"[a-z0-9]+", t.lower())
        docs.append(toks)
        wc.update(toks)
    words = {w: list(w) for w in wc}
    for _ in range(n_merges):
        stats = Counter()
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                stats[(syms[i], syms[i + 1])] += wc[w]
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    n_map = {w: len(s) for w, s in words.items()}
    recs = [
        (i, len(toks), sum(n_map[t] for t in toks))
        for i, toks in enumerate(docs)
        if toks
    ]
    return pd.DataFrame(recs, columns=["doc_id", "n_words", "n_bpe_tokens"])


def test_bpe_encode_matches_reference(ray_session):
    from engine.bpe import bpe_token_counts

    texts = ADVERSARIAL * 2 + ["", "!!!", "single"]
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    ).repartition(4)
    got = (
        bpe_token_counts(ds, n_merges=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = ref_encode_counts(texts, 5)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # zero-token docs must be absent (SQL-join semantics)
    assert len(got) == len(texts) - 2


# ------------------------------------------- scalar reference postings


def ref_postings(rows: list[tuple[int, str]], n_shards: int) -> pd.DataFrame:
    tf = Counter()
    for doc_id, text in rows:
        for tok in re.findall(r"[a-z0-9]+", text.lower()):
            tf[(doc_id, tok)] += 1
    groups = defaultdict(list)
    for (doc_id, tok), c in tf.items():
        groups[(tok, doc_id % n_shards)].append((doc_id, c))
    recs = []
    for (tok, shard), lst in groups.items():
        lst.sort()
        recs.append(
            (
                tok,
                shard,
                len(lst),
                sum(c for _, c in lst),
                ",".join(f"{d}:{c}" for d, c in lst),
            )
        )
    out = pd.DataFrame(
        recs, columns=["token", "shard", "df_shard", "tf_sum", "postings"]
    )
    return out.sort_values(["token", "shard"], kind="mergesort").reset_index(drop=True)


def test_inverted_postings_scalar_oracle_and_layout(ray_session):
    from engine.invindex import inverted_postings

    rng = np.random.RandomState(7)
    vocab = ["alpha", "beta", "gamma", "delta", "x1", "xy2"]
    rows = [
        (i, " ".join(rng.choice(vocab, size=rng.randint(1, 30))) + "!?")
        for i in range(200)
    ]
    tbl = pa.table({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    want = ref_postings(rows, 4)
    for parts in (1, 5):
        ds = rd.from_arrow(tbl).repartition(parts)
        got = (
            inverted_postings(ds, n_shards=4)
            .to_pandas()
            .sort_values(["token", "shard"], kind="mergesort")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ------------------------------------------------ scalar reference cooc


def ref_cooc(texts: list[str], window: int, min_count: int, k: int) -> pd.DataFrame:
    pairs = Counter()
    for t in texts:
        ts = re.findall(r"[a-z0-9]+", t.lower())
        for i in range(len(ts)):
            for d in range(1, window + 1):
                if i + d < len(ts):
                    pairs[(ts[i], ts[i + d])] += 1
    nl, nr = Counter(), Counter()
    for (a, b), c in pairs.items():
        nl[a] += c
        nr[b] += c
    n = sum(pairs.values())
    recs = [
        (a, b, c, (1_000_000 * c * n) // (nl[a] * nr[b]))
        for (a, b), c in pairs.items()
        if c >= min_count
    ]
    recs.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
    return pd.DataFrame(
        recs[:k], columns=["left_tok", "right_tok", "pair_cnt", "lift_ppm"]
    )


def test_cooc_lift_scalar_oracle_and_layout(ray_session):
    from engine.cooc import cooc_lift

    rng = np.random.RandomState(11)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff", "gg"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(2, 40))) for _ in range(150)
    ] + ["aa bb aa bb aa bb", "cc dd", "solo"]
    want = ref_cooc(texts, 3, 5, 25)
    for parts in (1, 6):
        ds = rd.from_arrow(pa.table({"text": texts})).repartition(parts)
        got = cooc_lift(ds, window=3, min_count=5, k=25).to_pandas()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_cooc_window_respects_doc_boundaries(ray_session):
    from engine.cooc import cooc_lift

    # "qq rr" appears once per doc; if windows leaked across docs the
    # (rr, qq) pair would appear too. min_count=1 exposes every pair.
    texts = ["qq rr"] * 6
    got = cooc_lift(
        rd.from_arrow(pa.table({"text": texts})), window=3, min_count=1, k=10
    ).to_pandas()
    assert got[["left_tok", "right_tok"]].values.tolist() == [["qq", "rr"]]
    assert got["pair_cnt"].tolist() == [6]
