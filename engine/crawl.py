"""Composed crawl-ingest pipeline (X47): the end-to-end opening
sequence of a web-scale training-data build, chaining the round-4
ingest operators over RAW CRAWL BYTES:

    WARC chunk parse (X46, Content-Length arithmetic)
      -> response-record filter
      -> canonical-URL dedup, keep min-id per canonical identity (X31)
      -> domain blocklist filter on the canonical host (X43)
      -> HTML -> text extraction (X44)
      -> hashed linear classifier scoring (X41)

Upstream parity: no analogue in GeoCoordinateConverter — brief-
mandated webtext infrastructure; the composition precedent is X39
(web_refresh_pipeline) and X15 (curate): every stage here is an
operator that is individually SQL-VALUE-checked in-window
(warc_records, canonical_urls, blocklist_docs, html_extract_docs,
classifier_scores), so the chain itself rides the driver gate
rows-only and is cross-checked in pytest against a scalar
recomputation from the generators' truth columns.

Scale shape: one chunk-parallel parse (zero shuffle), ONE digest-scale
combiner shuffle inside the canonical dedup, a keeper semi join and
a blocklist anti join (``engine.joins.lookup``: broadcast while the id
sets fit), then three zero-shuffle vectorized stages — below the
broadcast bound the chain moves corpus text exactly once (parse output
streaming into the filters), and only (digest, id) ints ever shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

RECS_PER_CHUNK = 4  # fixed so doc_id = chunk_id * 4 + rec_index is dense


def make_crawl_corpus(n_chunks: int) -> tuple[pa.Table, dict]:
    """Deterministic raw-crawl corpus: WARC chunks whose records carry
    the messy-URL corpus's urls (with known canonical identities) and
    the messy-HTML corpus's pages as payloads. Every 9th record is a
    non-response (metadata) record that the pipeline must drop first.
    Returns (chunks table, truth dict keyed by doc_id)."""
    from engine.warc import CRLF2, MARKER
    from engine.webhtml import make_html_corpus
    from engine.weburl import make_messy_urls_table

    n = n_chunks * RECS_PER_CHUNK
    urls_t = make_messy_urls_table(n)
    html_t = make_html_corpus(n)
    urls = urls_t["url"].to_pylist()
    canons = urls_t["truth_canon"].to_pylist()
    htmls = html_t["html"].to_pylist()
    texts = html_t["truth_text"].to_pylist()

    chunks = []
    truth: dict[int, dict] = {}
    for c in range(n_chunks):
        blob = b""
        for j in range(RECS_PER_CHUNK):
            i = c * RECS_PER_CHUNK + j
            is_resp = i % 9 != 4
            wtype = "response" if is_resp else "metadata"
            body = (htmls[i] if is_resp else "ignored").encode("ascii")
            blob += (
                MARKER
                + f"WARC-Type: {wtype}\r\n".encode()
                + f"WARC-Target-URI: {urls[i]}\r\n".encode()
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"\r\n"
                + body
                + CRLF2
            )
            truth[i] = {
                "is_response": is_resp,
                "url": urls[i],
                "canon": canons[i],
                "text": texts[i],
            }
        chunks.append(blob)
    tbl = pa.table(
        {
            "chunk_id": pa.array(np.arange(n_chunks, dtype=np.int64)),
            "data": pa.array(chunks, pa.binary()),
        }
    )
    return tbl, truth


def crawl_corpus_parquet(n_chunks: int) -> str:
    import os

    import pyarrow.parquet as pq

    root = f"/tmp/geokit_crawl/n{n_chunks}"
    path = os.path.join(root, "chunks.parquet")
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(root, exist_ok=True)
    tbl, _ = make_crawl_corpus(n_chunks)
    pq.write_table(tbl, path)
    open(done, "w").write("ok")
    return path


class _ScoreStage:
    """Actor-pool scoring stage that PRESERVES the document columns:
    wraps HashedLinearScorer (default deterministic weights, built
    once per actor) and appends its outputs."""

    def __init__(self):
        from engine.textops import HashedLinearScorer

        self.scorer = HashedLinearScorer(id_col="doc_id", text_col="text")

    def __call__(self, b: pa.Table) -> pa.Table:
        sc = self.scorer(b.select(["doc_id", "text"]))
        for c in ("n_toks", "clf_score", "clf_label"):
            b = b.append_column(c, sc[c])
        return b


def crawl_ingest(
    chunks: Dataset,
    blocklist: list[str] | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """The composed chain over a (chunk_id, data) crawl Dataset.

    Output: one row per surviving document —
    (doc_id, url, host, text, n_chars, score, label)."""
    from engine.joins import lookup
    from engine.warc import read_warc
    from engine.webhtml import extract_text_batch
    from engine.weburl import RE_HOST, blocklist_filter, canonical_url_dedup

    def to_docs(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["warc_type"], "response")
        b = b.filter(keep)
        doc_id = pc.add(
            pc.multiply(b["chunk_id"], RECS_PER_CHUNK), b["rec_index"]
        )
        return pa.table(
            {
                "doc_id": pc.cast(doc_id, pa.int64()),
                "url": b["target_uri"],
                "html": b["payload"],
            }
        )

    docs = read_warc(chunks).map_batches(to_docs, batch_format="pyarrow")

    # Canonical-URL dedup verdicts on the (id, url) projection only;
    # the keeper ids are the build side of a semi join (broadcast while
    # they fit, a hash-join semi past that — never a driver collect).
    verd = canonical_url_dedup(
        docs, id_col="doc_id", url_col="url", num_partitions=num_partitions
    )
    keepers = verd.map_batches(
        lambda b: b.filter(b["is_keeper"]).select(["doc_id"]),
        batch_format="pyarrow",
    )
    kept = lookup(docs, keepers, "doc_id", how="semi")

    # Canonical host (the canonicalize rule's host steps).
    def add_host(b: pa.Table) -> pa.Table:
        host = pc.replace_substring_regex(
            pc.ascii_lower(
                pc.struct_field(pc.extract_regex(b["url"], RE_HOST), "g")
            ),
            r"^www\.",
            "",
        )
        return b.append_column("host", host)

    hosted = kept.map_batches(add_host, batch_format="pyarrow")

    # Blocklist verdicts on the (id, host) projection; the blocked ids
    # (a blocklist kills whole domains, not the corpus) anti-join out.
    blocked = blocklist_filter(
        hosted.select_columns(["doc_id", "host"]),
        blocklist=blocklist,
        id_col="doc_id",
        host_col="host",
    ).map_batches(
        lambda b: b.filter(b["blocked"]).select(["doc_id"]),
        batch_format="pyarrow",
    )
    unblocked = lookup(hosted, blocked, "doc_id", how="anti")

    def extract(b: pa.Table) -> pa.Table:
        ex = extract_text_batch(
            b.select(["doc_id", "html"]), id_col="doc_id", html_col="html"
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "url": b["url"],
                "host": b["host"],
                "text": ex["text"],
                "n_chars": ex["n_chars"],
            }
        )

    extracted = unblocked.map_batches(extract, batch_format="pyarrow")
    return extracted.map_batches(
        _ScoreStage, batch_format="pyarrow", concurrency=(1, 8)
    )
