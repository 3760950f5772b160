"""Flagship pipeline: geotag a pages corpus (SURVEY.md §3.1 engine
equivalent of the ``gk-slo`` lifecycle, at corpus scale).

read_parquet(url, warc_ts, text, lang — html pruned AT THE READ)
  -> map_batches(prepare_stage)       fused stateless chain: RE2 extract
                                      -> filter -> TM/Helmert projections
                                      -> geoid -> S2-style cell
  -> map_batches(spatial_join_stage)  fused small-side joins: AFT triangle
                                      affine + municipality PIP + control-
                                      point kNN; indexes built once per
                                      worker process (module cache — see
                                      SpatialJoin docstring for when an
                                      actor pool is the better shape)
  -> combiner pre-agg + partition-merge groupby(cell)  skew-proof rollup

Everything streams; nothing materializes the corpus. Stages run at
block granularity (batch_size=None): batches are exactly the incoming
Arrow blocks (zero-copy, no re-slicing), so parallelism follows the
read's block count and, at scale, DataContext.target_max_block_size.
"""

from __future__ import annotations

import ray.data as rd
from ray.data import Dataset

from engine.shuffle import grouped_count_sums, topk
from engine.stages import prepare_stage, spatial_join_stage


def enrich_pages(
    pages_path: str | list[str],
    level: int = 12,
    knn_k: int = 3,
    num_blocks: int | None = None,
) -> Dataset:
    """The streaming enrichment pipeline; returns the lazy enriched
    Dataset (one row per geotagged page)."""
    if num_blocks is None:
        # 2 blocks per CPU: 1/CPU leaves the job tail running on a
        # single straggler block while every other core idles (measured:
        # the dominant loss at num_cpus=32), and >4/CPU pays per-task
        # dispatch overhead. At real corpus scale drop
        # override_num_blocks and let target_max_block_size govern.
        import ray

        try:
            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:  # noqa: BLE001
            ncpu = 8
        num_blocks = min(256, max(16, 2 * ncpu))
    from engine.util import clean_read_schema

    cols = ["url", "warc_ts", "text", "lang"]
    ds = rd.read_parquet(
        pages_path,
        columns=cols,
        # Metadata-free subset schema -> hashable block schemas (no
        # "Failed to hash the schemas" concat warnings downstream).
        schema=clean_read_schema(pages_path, cols),
        override_num_blocks=num_blocks,
    )
    ds = ds.map_batches(
        prepare_stage,
        fn_kwargs=dict(level=level),
        batch_format="pyarrow",
        batch_size=None,
    )
    ds = ds.map_batches(
        spatial_join_stage,
        fn_kwargs=dict(direction="fwd", k=knn_k),
        batch_format="pyarrow",
        batch_size=None,
    )
    return ds


def cell_rollup(enriched: Dataset) -> Dataset:
    """Per-cell aggregate (A1): page count + mean coordinates, via the
    per-batch combiner so the shuffle moves partials, not rows.
    Executes ``enriched`` at call time (the partials are materialized
    and counted). ``salts=8``: when the merge needs more than one
    partition (over ``shuffle.MERGE_PARTITION_ROWS`` partial rows),
    the salted pre-merge caps any one cell's partial rows at 8 into
    the final merge — a Zipfian cell distribution (one cell holding
    half the corpus) cannot serialize one reducer. Below that the
    partials merge in one task and no pre-merge runs. Fixed S (not
    "auto") because the auto probe would re-execute the enrich lineage
    for its sample."""
    slim = enriched.select_columns(["cell", "fi", "la"])
    return grouped_count_sums(slim, key="cell", mean_cols=("fi", "la"), salts=8)


def cell_day_rollup(enriched: Dataset) -> Dataset:
    """Event-time window aggregate (SURVEY.md §2.7): pages per
    (cell, warc day) — groupby((cell, date)) with the combiner
    shuffle. Batch windowing, not true streaming (documented)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def add_day(b: pa.Table) -> pa.Table:
        # Integer epoch-day, not a strftime string: int keys hash and
        # group ~10x faster through the combiner shuffle.
        day = pc.cast(
            pc.divide(pc.cast(b["warc_ts"], pa.int64()), 86_400_000_000),
            pa.int32(),
        )
        return pa.table({"cell": b["cell"], "epoch_day": day})

    slim = enriched.select_columns(["cell", "warc_ts"]).map_batches(
        add_day, batch_format="pyarrow"
    )
    return grouped_count_sums(slim, key=["cell", "epoch_day"])


def densest_cells(enriched: Dataset, k: int = 20) -> Dataset:
    """Top-k densest cells (A4) over the already-reduced rollup."""
    return topk(cell_rollup(enriched), "cnt", k)
