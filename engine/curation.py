"""End-to-end training-data curation pipeline — the composed workflow
every LLM-data op in this repo exists to serve:

    quality filter → language filter → [PII scrub] → exact dedup
    → near-dup dedup → [line-level dedup] → benchmark decontamination
    → deterministic train/val split → partitioned parquet write

    (bracketed stages are opt-in: ``scrub_pii=True`` redacts
    email/phone/IP before any digesting so duplicates of a doc that
    differ only in PII dedup together; ``line_dedup=True`` (newline
    lines; blank lines are exempt from the cut) or ``line_dedup=w``
    (w-token windows) applies the C4 corpus-wide duplicate-line cut
    after doc-level dedup and drops docs it empties entirely)

Composition and scale contracts (each stage's detail lives on its op):
- quality / language / PII are ONE fused per-block stage, zero-shuffle;
- the corpus is never ``.materialize()``-d into the object store:
  multi-pass inputs (the dedup stages re-scan the filtered corpus,
  the report/split/write each consume the final rows) are
  CHECKPOINTED to parquet under ``cache_dir`` (streaming write, one
  file per block, disk-resident — the engine/checkpoint.py layout
  philosophy) and re-read with pruned columns per pass. Object-store
  residency is bounded by in-flight blocks, not corpus size;
- per-stage report counts come from PER-BLOCK METRIC PARTIALS: each
  map task writes one tiny JSON partial (filename = digest of the
  block's id bytes, so task retries overwrite instead of
  double-counting) into ``cache_dir/_metrics_*``; the driver sums
  partials after the stage's write completes. No ``ds.count()``
  pass, no extra pipeline execution per counter;
- exact dedup ships 24 B digests through its shuffle, never text, and
  the verdict returns as a DROP-ID set (duplicate-scale, sparse on
  real corpora) anti-filtered where the blocks live — broadcast via
  ``semi_filter`` (a Bloom filter is NOT usable for anti: false
  positives would drop clean docs);
- near-dup dedup is the full minhash → LSH → semi-filtered exact
  verify → connected-components verdict (engine.dedupe), reduced to
  the same sparse drop-id shape; both drop sets merge into ONE
  anti-filter pass;
- decontamination is a broadcast n-gram probe, zero-shuffle;
- the split is a deterministic content-id hash (resumable,
  repartition-stable);
- the final rows are checkpointed ONCE with split labels; the
  returned Dataset and the optional ``out_dir`` train/val writes all
  read from that checkpoint instead of re-executing the chain.

The driver never holds corpus rows — only sparse drop-id sets and
summed metric partials.

NOTE: ``cache_dir`` (default: a fresh ``curate-*`` tempdir) must be
on storage visible to all workers (shared FS / object store URI on a
real cluster — the same assumption every parquet sink here makes).
The caller owns the directory, the default one too: nothing here
removes it. The returned Dataset reads lazily from it; delete it
only after consuming the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from engine.textops import contamination_flags, langid_batch, quality_batch


def _write_partial(mdir: str, ids: pa.ChunkedArray | pa.Array, payload: dict) -> None:
    """One metric-partial JSON per (stage, block). The filename is a
    digest of the block's id bytes + row count, so a retried task
    overwrites its own partial (idempotent) instead of double-counting.
    Unique ids guarantee distinct blocks get distinct names."""
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    idv = ids.to_numpy(zero_copy_only=False)
    key = hashlib.blake2b(
        idv.tobytes() + str(len(idv)).encode(), digest_size=12
    ).hexdigest()
    tmp = os.path.join(mdir, f".{key}.{os.getpid()}.tmp")
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, os.path.join(mdir, f"{key}.json"))


def _sum_partials(mdir: str) -> dict[str, int]:
    tot: dict[str, int] = {}
    for name in os.listdir(mdir):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(mdir, name)) as f:
            for k, v in json.load(f).items():
                tot[k] = tot.get(k, 0) + int(v)
    return tot


# Checkpoint block/file sizing: many TINY blocks through the dedup
# shuffles trip keyed_partition_map's documented inline-object limit
# (block_bytes / num_partitions < ~100 KB parks the whole shuffle
# payload on the driver; at 1M docs a 192-file checkpoint starved the
# verify's union for 20+ min with the executor thread pinned). Write
# checkpoints in >=64k-row files and cap re-read block counts so test-
# scale corpora keep MB-scale blocks; production 128 MB blocks are
# immune either way.
_CHECKPOINT_ROWS_PER_FILE = 65_536


def _write_cache(ds: Dataset, path: str) -> None:
    ds.write_parquet(path, min_rows_per_file=_CHECKPOINT_ROWS_PER_FILE)


def _read_cache(path: str, columns: list[str] | None = None) -> Dataset:
    """Pruned, metadata-free re-read of a parquet checkpoint, block
    count capped to keep blocks MB-scale (see sizing note above)."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from engine.util import clean_read_schema

    kwargs: dict = {}
    try:
        n_rows = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(os.path.join(path, "*.parquet"))
        )
        kwargs["override_num_blocks"] = max(
            1, min(256, -(-n_rows // (_CHECKPOINT_ROWS_PER_FILE // 2)))
        )
    except Exception:  # noqa: BLE001 — odd layouts: let Ray decide
        pass
    return rd.read_parquet(
        path, columns=columns, schema=clean_read_schema(path, columns), **kwargs
    )


def _drop_ids_exact(ds: Dataset, id_col: str, text_col: str) -> np.ndarray:
    """Doc ids to drop for exact dedup: every member of a digest group
    except the min id. The shuffle carries (id, d1, d2) only."""
    from engine.dedupe import content_digests
    from engine.shuffle import keyed_partition_map

    def digest(b: pa.Table) -> pa.Table:
        d1, d2 = content_digests(b[text_col])
        return pa.table({id_col: b[id_col], "d1": pa.array(d1), "d2": pa.array(d2)})

    dig = ds.map_batches(digest, batch_format="pyarrow")

    def drops(df):
        mins = df.groupby(["d1", "d2"], sort=False)[id_col].transform("min")
        return df.loc[df[id_col] != mins, [id_col]]

    drop_ds = keyed_partition_map(
        dig,
        ["d1", "d2"],
        drops,
        num_partitions=32,
        out_schema=pa.schema([(id_col, pa.int64())]),
    )
    parts = [
        b[id_col].to_numpy(zero_copy_only=False)
        for b in drop_ds.iter_batches(batch_format="pyarrow")
    ]
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)


def _drop_ids_neardup(ds: Dataset, id_col: str, text_col: str, threshold: float) -> np.ndarray:
    """Doc ids to drop for near-dup dedup: verdict keep == False
    (duplicate-scale — the verdict's non-keep rows are exactly the
    grouped duplicates)."""
    from engine.dedupe import minhash_dedup_verdict

    verdict = minhash_dedup_verdict(
        ds.select_columns([id_col, text_col]), id_col=id_col, text_col=text_col,
        threshold=threshold,
    )
    parts = []
    for b in verdict.iter_batches(batch_format="pyarrow"):
        keep = b["keep"].to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        parts.append(ids[~keep])
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)


def _empty_result(id_col: str, text_col: str) -> Dataset:
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                id_col: pa.array([], pa.int64()),
                text_col: pa.array([], pa.string()),
                "split": pa.array([], pa.string()),
            }
        )
    )


def curate(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    langs: tuple[str, ...] = ("en",),
    min_tokens: int = 5,
    min_alpha_milli: int = 500,
    neardup_threshold: float = 0.5,
    scrub_pii: bool = False,
    line_dedup: bool | int = False,
    contamination_queries: tuple[str, ...] = (),
    contamination_k: int = 8,
    val_permille: int = 50,
    out_dir: str | None = None,
    cache_dir: str | None = None,
) -> tuple[Dataset, dict]:
    """Run the full curation chain; returns (curated dataset with a
    ``split`` column, per-stage report dict). When ``out_dir`` is
    given, also writes ``{out_dir}/train`` and ``{out_dir}/val``
    parquet directories. The returned Dataset is a lazy read of the
    final checkpoint under ``cache_dir`` — consuming it re-reads
    parquet, never re-executes the chain. The caller owns
    ``cache_dir`` (default: a fresh ``curate-*`` tempdir) and removes
    it once the result is consumed."""
    from engine.joins import semi_filter

    cache = cache_dir or tempfile.mkdtemp(prefix="curate-", dir="/tmp")
    report: dict[str, int] = {}

    # --- stage 1 (FUSED, one pass): quality + language [+ PII scrub] ---
    m1 = os.path.join(cache, "_metrics_filter")
    os.makedirs(m1, exist_ok=True)
    if scrub_pii:
        from engine.textops import pii_scrub_batch

    def qual_lang_scrub(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_in = b.num_rows
        in_ids = b[id_col]
        q = quality_batch(b, text_col)
        q = langid_batch(q, text_col)
        ok_tokens = pa.array(
            q["n_tokens"].to_numpy(zero_copy_only=False) >= min_tokens
        )
        ok_alpha = pa.array(
            q["alpha_ratio_milli"].to_numpy(zero_copy_only=False) >= min_alpha_milli
        )
        lang_pred = np.asarray(q["lang_pred"].to_pylist(), dtype=object)
        ok_lang = pa.array(np.isin(lang_pred, np.asarray(langs, dtype=object)))
        keep = pc.and_(pc.and_(ok_tokens, ok_alpha), ok_lang)
        kept = q.filter(keep).select([id_col, text_col])
        payload = {"input": n_in, "after_quality_lang": kept.num_rows}
        if scrub_pii:
            s = pii_scrub_batch(kept, text_col)
            hits = (
                s["n_emails"].to_numpy(zero_copy_only=False)
                + s["n_phones"].to_numpy(zero_copy_only=False)
                + s["n_ips"].to_numpy(zero_copy_only=False)
            ) > 0
            payload["pii_docs_scrubbed"] = int(hits.sum())
            kept = pa.table({id_col: kept[id_col], text_col: s["text_scrubbed"]})
        _write_partial(m1, in_ids, payload)
        return kept

    fdir = os.path.join(cache, "filtered")
    _write_cache(ds.map_batches(qual_lang_scrub, batch_format="pyarrow"), fdir)
    s1 = _sum_partials(m1)
    report["input"] = s1.get("input", 0)
    report["after_quality_lang"] = s1.get("after_quality_lang", 0)
    if scrub_pii:
        report["pii_docs_scrubbed"] = s1.get("pii_docs_scrubbed", 0)

    def _finish_empty() -> tuple[Dataset, dict]:
        for k in (
            "exact_dups_dropped",
            "near_dups_dropped",
            "contaminated_dropped",
            "output",
            "val_rows",
        ):
            report.setdefault(k, 0)
        if line_dedup:
            report.setdefault("lines_dropped", 0)
            report.setdefault("emptied_docs_dropped", 0)
        return _empty_result(id_col, text_col), report

    if report["after_quality_lang"] == 0:
        return _finish_empty()

    # --- stages 2+3: exact + near-dup drop-id sets, ONE anti-filter ---
    exact_drops = _drop_ids_exact(_read_cache(fdir, [id_col, text_col]), id_col, text_col)
    report["exact_dups_dropped"] = int(len(exact_drops))
    near_drops = _drop_ids_neardup(
        semi_filter(_read_cache(fdir, [id_col, text_col]), exact_drops, id_col, anti=True),
        id_col,
        text_col,
        neardup_threshold,
    )
    report["near_dups_dropped"] = int(len(near_drops))
    all_drops = np.sort(np.concatenate([exact_drops, near_drops]))
    deduped = semi_filter(
        _read_cache(fdir, [id_col, text_col]), all_drops, id_col, anti=True
    )

    if line_dedup:
        import pyarrow.compute as pc

        from engine.dedupe import line_dedup as _line_dedup

        width = None if line_dedup is True else int(line_dedup)
        ld = _line_dedup(deduped, id_col=id_col, text_col=text_col, token_width=width)

        # Checkpoint the rebuilt docs once (multi-pass input: counters
        # + onward flow), tagging emptied docs so the counter pass
        # reads two int columns, never text.
        def tag(b: pa.Table) -> pa.Table:
            empty = pc.cast(
                pc.equal(pc.binary_length(b["text_dedup"]), 0), pa.int64()
            )
            return pa.table(
                {
                    id_col: b[id_col],
                    "text_dedup": b["text_dedup"],
                    "n_dropped": b["n_dropped"],
                    "is_empty": empty,
                }
            )

        lddir = os.path.join(cache, "line_dedup")
        _write_cache(ld.map_batches(tag, batch_format="pyarrow"), lddir)
        m_ld = os.path.join(cache, "_metrics_line")
        os.makedirs(m_ld, exist_ok=True)

        def ld_counts(b: pa.Table) -> pa.Table:
            _write_partial(
                m_ld,
                b[id_col],
                {
                    "lines_dropped": int(
                        b["n_dropped"].to_numpy(zero_copy_only=False).sum()
                    ),
                    "emptied_docs_dropped": int(
                        b["is_empty"].to_numpy(zero_copy_only=False).sum()
                    ),
                },
            )
            return pa.table({id_col: b[id_col]})

        # Pruned counter pass: ids + two int columns, no text bytes.
        _read_cache(lddir, [id_col, "n_dropped", "is_empty"]).map_batches(
            ld_counts, batch_format="pyarrow"
        ).count()
        sld = _sum_partials(m_ld)
        report["lines_dropped"] = sld.get("lines_dropped", 0)
        report["emptied_docs_dropped"] = sld.get("emptied_docs_dropped", 0)

        def keep_nonempty(b: pa.Table) -> pa.Table:
            t = b.filter(pc.not_equal(b["text_dedup"], ""))
            return pa.table({id_col: t[id_col], text_col: t["text_dedup"]})

        deduped = _read_cache(lddir, [id_col, "text_dedup"]).map_batches(
            keep_nonempty, batch_format="pyarrow"
        )

    if contamination_queries:
        flags = contamination_flags(
            deduped, list(contamination_queries), k=contamination_k,
            id_col=id_col, text_col=text_col,
        )
        bad = []
        for b in flags.iter_batches(batch_format="pyarrow"):
            c = b["contaminated"].to_numpy(zero_copy_only=False)
            bad.append(b[id_col].to_numpy(zero_copy_only=False)[c])
        bad_ids = np.sort(np.concatenate(bad)) if bad else np.zeros(0, dtype=np.int64)
        report["contaminated_dropped"] = int(len(bad_ids))
        deduped = semi_filter(deduped, bad_ids, id_col, anti=True)
    else:
        report["contaminated_dropped"] = 0

    # --- final: split label + ONE checkpoint; counters as partials ---
    m_out = os.path.join(cache, "_metrics_out")
    os.makedirs(m_out, exist_ok=True)

    def split(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (ids * 2654435761 + 97) % 1000
        s = np.where(h < val_permille, "val", "train")
        _write_partial(
            m_out,
            b[id_col],
            {"output": b.num_rows, "val_rows": int((h < val_permille).sum())},
        )
        return b.append_column("split", pa.array(s, pa.string()))

    findir = os.path.join(cache, "final")
    _write_cache(deduped.map_batches(split, batch_format="pyarrow"), findir)
    so = _sum_partials(m_out)
    report["output"] = so.get("output", 0)
    report["val_rows"] = so.get("val_rows", 0)
    if report["output"] == 0:
        return _finish_empty()

    out = _read_cache(findir)
    if out_dir is not None:
        import pyarrow.compute as pc

        for name in ("train", "val"):
            part = _read_cache(findir).map_batches(
                lambda b, nm=name: b.filter(pc.equal(b["split"], nm)),
                batch_format="pyarrow",
            )
            part.write_parquet(f"{out_dir}/{name}")
    return out, report
