"""engine/curation.py — the composed curation chain: every planted
defect class is dropped by exactly its stage, survivors and report
counts are exact, the split is deterministic, and the partitioned
write round-trips."""

from __future__ import annotations

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from engine.curation import curate

BENCH = "the quick brown fox jumps over the lazy dog today"

# English marker words keep langid happy; >= 5 tokens; alphabetic.
GOOD_A = "the cat and the dog sat in the warm sun for hours"
GOOD_B = "it is a fine day to walk in the park and read"
GOOD_C = "science is the study of the world and all that is in it"
NEAR_B = "it is a fine day to walk in the park and sing"  # near-dup of B


def _corpus() -> pa.Table:
    docs = [
        (0, GOOD_A),
        (1, GOOD_B),
        (2, GOOD_C),
        (3, "short the"),                                  # too few tokens
        (4, "the 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9"),  # alpha-poor
        (5, "der hund und die katze ist nicht mit der maus zu hause"),  # de
        (6, GOOD_A),                                        # exact dup of 0
        (7, NEAR_B),                                        # near-dup of 1
        (8, f"intro words {BENCH} more trailing text of it"),  # contaminated
    ]
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )


@pytest.mark.usefixtures("ray_session")
def test_curate_drops_each_defect_class(tmp_path):
    out, report = curate(
        rd.from_arrow(_corpus()).repartition(3),
        langs=("en",),
        min_tokens=5,
        min_alpha_milli=500,
        neardup_threshold=0.5,
        contamination_queries=(BENCH,),
        contamination_k=8,
        val_permille=500,
        out_dir=str(tmp_path / "curated"),
        cache_dir=str(tmp_path / "cache"),
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(df.doc_id) == [0, 1, 2]  # only the three good docs survive
    assert report["input"] == 9
    assert report["after_quality_lang"] == 6  # 3,4,5 dropped
    assert report["exact_dups_dropped"] == 1  # 6
    assert report["near_dups_dropped"] == 1  # 7
    assert report["contaminated_dropped"] == 1  # 8
    assert report["output"] == 3
    # deterministic split column
    h = (df.doc_id.to_numpy() * 2654435761 + 97) % 1000
    assert list(df.split) == ["val" if x < 500 else "train" for x in h]
    assert report["val_rows"] == int((h < 500).sum())
    # partitioned write round-trips with the same rows
    back = []
    for name in ("train", "val"):
        files = glob.glob(str(tmp_path / "curated" / name / "*"))
        if files:
            back.append(pq.read_table(files))
    total = sum(t.num_rows for t in back)
    assert total == 3


@pytest.mark.usefixtures("ray_session")
def test_curate_is_deterministic(tmp_path):
    ds = rd.from_arrow(_corpus())
    out1, rep1 = curate(
        ds, contamination_queries=(BENCH,), val_permille=500, cache_dir=str(tmp_path / "a")
    )
    out2, rep2 = curate(
        rd.from_arrow(_corpus()).repartition(4),
        contamination_queries=(BENCH,),
        val_permille=500,
        cache_dir=str(tmp_path / "b"),
    )
    a = out1.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = out2.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert rep1 == rep2


@pytest.mark.usefixtures("ray_session")
def test_curate_pii_and_line_dedup_stages(tmp_path):
    """Opt-in stages: PII scrub runs BEFORE digesting (two docs that
    differ only in their email merge under exact dedup), the C4 line
    cut removes corpus-duplicate lines, and a doc emptied by the cut
    is dropped — each planted defect handled by exactly its stage."""
    line_a = "the cat and the dog sat in the warm sun for hours"
    common = "the shared common line is here today"
    docs = [
        (0, "please reach the team at bob@x.io for the full details"),
        (1, "please reach the team at eve@y.org for the full details"),
        (2, f"{line_a}\n{common}\nthis doc has its own words in it"),
        (3, f"{common}\nanother unique line for the second doc is right here"),
        (4, common),  # all lines are corpus dups -> emptied -> dropped
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    out, report = curate(
        rd.from_arrow(t).repartition(2),
        langs=("en",),
        min_tokens=5,
        min_alpha_milli=500,
        neardup_threshold=0.9,
        scrub_pii=True,
        line_dedup=True,
        val_permille=0,
        cache_dir=str(tmp_path / "cache"),
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(df.doc_id) == [0, 2, 3]
    assert report["pii_docs_scrubbed"] == 2
    assert report["exact_dups_dropped"] == 1   # doc 1 == doc 0 after scrub
    assert report["lines_dropped"] == 2        # common line in docs 3 and 4
    assert report["emptied_docs_dropped"] == 1  # doc 4
    assert report["output"] == 3
    texts = dict(zip(df.doc_id, df.text))
    assert "[EMAIL]" in texts[0] and "bob@x.io" not in texts[0]
    assert texts[3] == "another unique line for the second doc is right here"
    assert texts[2] == docs[2][1]  # first occurrence keeps its line
