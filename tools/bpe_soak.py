"""BPE tokenizer training at corpus scale: 1M docs / ~40M word
occurrences through engine.bpe.bpe_merges under an object-store cap.

Evidence targets:
- Exactness: the engine's merge list must equal a classic scalar
  Sennrich-style BPE run on the EXACT global word-count table, which
  is recomputed here independently (vectorized np.bincount over the
  same generation arithmetic — no corpus re-read, no engine code).
- Scale shape: phase A (the one corpus-scale pass) is timed separately
  from the merge iterations; iterations must be vocab-scale (the
  per-iteration wall must not grow with corpus rows — reported as
  iters_sec_total / n_iters vs phase_a_sec).

Corpus: doc i holds L_i = 20 + (i % 41) words, word j of doc i has
vocab id (i * 2654435761 + j * 40503) % V with a skew fold
(id -> id * id % V keeps a Zipf-ish head) — fully deterministic, so
the scalar truth is pure arithmetic.

Usage: python -m tools.bpe_soak [n_docs] [cap_gb]
Prints one JSON line; raises on any merge mismatch.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter

import numpy as np

V = 65536
A, B = 2654435761, 40503
N_MERGES = 8


def _word_strings() -> np.ndarray:
    """vocab id -> deterministic 4-9 char lowercase word (base-13 over
    a letter alphabet; distinct ids map to distinct words)."""
    letters = np.array(list("abcdefghijklm"))
    ids = np.arange(V, dtype=np.int64)
    out = []
    for i in ids:
        w, x = [], int(i) + V  # + V so every word has >= 4 digits
        while x:
            w.append(letters[x % 13])
            x //= 13
        out.append("".join(w))
    return np.array(out)


def _doc_word_ids(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    raw = (i * A + j * B) % V
    return (raw * raw) % V


def doc_layout(n_docs: int):
    """(lens, doc_idx, pos, ids): the corpus as flat arithmetic —
    shared by the truth computations here and in the invindex soak."""
    lens = 20 + (np.arange(n_docs, dtype=np.int64) % 41)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    pos = np.concatenate([np.arange(l, dtype=np.int64) for l in lens])
    ids = _doc_word_ids(doc_idx, pos)
    return lens, doc_idx, pos, ids


def corpus_parquet(n_docs: int) -> str:
    """Build (cached) the deterministic soak corpus; returns the file."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = f"/tmp/geokit_bpe/n{n_docs}"
    f = f"{path}/docs.parquet"
    if os.path.exists(f):
        return f
    os.makedirs(path, exist_ok=True)
    words = _word_strings()
    lens, _, _, _ = doc_layout(n_docs)
    texts = []
    chunk = 100_000
    for lo in range(0, n_docs, chunk):
        hi = min(lo + chunk, n_docs)
        li = lens[lo:hi]
        di = np.repeat(np.arange(lo, hi, dtype=np.int64), li)
        po = np.concatenate([np.arange(l, dtype=np.int64) for l in li])
        wi = words[_doc_word_ids(di, po)]
        s = pd.Series(wi).groupby(di).agg(" ".join)
        texts.append(pa.table({"doc_id": s.index.to_numpy(), "text": s.to_numpy()}))
    # 64k-row row groups so Ray can split the read into parallel
    # tasks (a single default row group serializes the whole map side)
    pq.write_table(pa.concat_tables(texts), f, row_group_size=65536)
    return f


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    cap_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0

    # ---- scalar truth: global word counts by pure arithmetic --------
    words = _word_strings()
    lens, doc_idx, pos, ids = doc_layout(n_docs)
    counts = np.bincount(ids, minlength=V).astype(np.int64)
    wc = {words[k]: int(counts[k]) for k in range(V) if counts[k]}
    n_occ = int(counts.sum())

    # classic scalar BPE over the word-count table (the reference)
    t0 = time.time()
    wsyms = {w: list(w) for w in wc}
    ref = []
    for step in range(1, N_MERGES + 1):
        stats: Counter = Counter()
        for w, syms in wsyms.items():
            c = wc[w]
            for i in range(len(syms) - 1):
                stats[(syms[i], syms[i + 1])] += c
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        ref.append((step, best[0], best[1], best[0] + best[1], stats[(best)]))
        for w, syms in wsyms.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            wsyms[w] = out
    ref_sec = round(time.time() - t0, 2)

    # ---- build the corpus parquet (cached) --------------------------
    f_corpus = corpus_parquet(n_docs)
    gen_done = time.time()

    # ---- engine run under the cap -----------------------------------
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

    import engine.bpe as bpe
    from engine.bpe import bpe_merges, word_seq_counts
    from engine.util import clean_read_schema

    ds = rd.read_parquet(
        f_corpus, columns=["text"], schema=clean_read_schema(f_corpus, ["text"])
    )

    t0 = time.time()
    wtab = word_seq_counts(ds, num_partitions=16).materialize()
    phase_a_sec = round(time.time() - t0, 2)
    assert wtab.count() == len(wc)

    t0 = time.time()
    got = bpe_merges(ds, n_merges=N_MERGES).to_pandas()  # local at this vocab size
    total_sec = round(time.time() - t0, 2)

    bpe.LOCAL_VOCAB_LIMIT = 0  # forces the distributed loop
    t0 = time.time()
    got_dist = bpe_merges(ds, n_merges=N_MERGES).to_pandas()
    total_dist_sec = round(time.time() - t0, 2)

    got_rows = list(got.itertuples(index=False, name=None))
    assert got_rows == ref, f"merge mismatch:\n{got_rows}\nvs ref\n{ref}"
    assert got_rows == list(got_dist.itertuples(index=False, name=None))

    rss_gb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20), 2)
    print(
        json.dumps(
            {
                "soak": "bpe",
                "n_docs": n_docs,
                "n_word_occurrences": n_occ,
                "vocab_words": len(wc),
                "n_merges": N_MERGES,
                "phase_a_sec": phase_a_sec,
                "total_sec_auto": total_sec,
                "total_sec_distributed": total_dist_sec,
                "iters_sec_distributed": round(total_dist_sec - phase_a_sec, 2),
                "per_iter_sec_distributed": round(
                    (total_dist_sec - phase_a_sec) / N_MERGES, 2
                ),
                "ref_bpe_sec": ref_sec,
                "merges_exact": True,
                "driver_rss_gb": rss_gb,
                "cap_gb": cap_gb,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
