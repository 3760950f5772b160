"""Beyond-broadcast swap-path parity.

Every guarded broadcast in the engine has a co-partitioned /
hash-join swap for corpora whose lookup state outgrows a ray.put
broadcast. These tests force each swap and assert bit-identical
results against the broadcast leg.

- ``test_lookup_route_parity``: every ``engine.joins.lookup`` call
  site (flag_join, candidate_docs, crawl_ingest, web_refresh,
  canonical_url_dedup, cooc_lift) and lookup itself on null keys and
  an empty build side, with ``BROADCAST_MAX_KEYS`` pinned to a large
  value (broadcast) or 0 (hash join).
- Operators that fuse their probe into a custom payload keep their
  own ``mode=`` switch: line_dedup, exact_substring_dedup,
  jaccard_similarity_join_prefix (shingle-df map), bpe_token_counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from engine.bpe import bpe_token_counts
from engine.cooc import cooc_lift
from engine.dedupe import (
    exact_substring_dedup,
    jaccard_similarity_join_prefix,
    line_dedup,
)
from engine.weburl import canonical_url_dedup, make_messy_urls_table


def _eq(a, b, keys):
    da = a.to_pandas().sort_values(keys).reset_index(drop=True)
    db = b.to_pandas().sort_values(keys).reset_index(drop=True)
    db = db[da.columns]
    pd.testing.assert_frame_equal(da, db)


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    rng = np.random.default_rng(7)
    pool = [f"line {i} content" for i in range(30)]
    docs = []
    for i in range(120):
        n = rng.integers(1, 12)
        body = [pool[j] for j in rng.integers(0, 30, n)]
        if rng.random() < 0.3:
            body.insert(0, "")
        docs.append("\n".join(body))
    t = pa.table(
        {"doc_id": pa.array(np.arange(120, dtype=np.int64)),
         "text": pa.array(docs)}
    )
    return rd.from_arrow(t).repartition(4).materialize()


@pytest.fixture(scope="module")
def token_docs_ds(ray_session):
    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(25)]
    boiler = " ".join(vocab[:12])
    docs = []
    for i in range(150):
        body = " ".join(vocab[j] for j in rng.integers(0, 25, rng.integers(3, 60)))
        if rng.random() < 0.4:
            body = boiler + " " + body
        docs.append(body)
    t = pa.table(
        {"doc_id": pa.array(np.arange(150, dtype=np.int64)),
         "text": pa.array(docs)}
    )
    return rd.from_arrow(t).repartition(4).materialize()


def test_line_dedup_swap(docs_ds):
    bc = line_dedup(docs_ds, mode="broadcast")
    for part in (
        line_dedup(docs_ds, mode="partition", num_partitions=5),
        line_dedup(docs_ds, max_broadcast_drops=1, num_partitions=5),
    ):
        _eq(bc, part, ["doc_id"])


def test_substr_dedup_swap(token_docs_ds):
    bc = exact_substring_dedup(token_docs_ds, L=8, mode="broadcast",
                               num_partitions=4)
    for part in (
        exact_substring_dedup(token_docs_ds, L=8, mode="partition",
                              num_partitions=4),
        exact_substring_dedup(token_docs_ds, L=8, max_broadcast=1,
                              num_partitions=4),
    ):
        _eq(bc, part, ["doc_id"])


def test_jaccard_prefix_swap(token_docs_ds):
    bc = jaccard_similarity_join_prefix(token_docs_ds, num_partitions=8,
                                        mode="broadcast")
    for part in (
        jaccard_similarity_join_prefix(token_docs_ds, num_partitions=8,
                                       mode="partition"),
        jaccard_similarity_join_prefix(token_docs_ds, num_partitions=8,
                                       max_broadcast_df=1),
    ):
        _eq(bc, part, ["id_a", "id_b"])


def test_bpe_swap_local_trained(token_docs_ds):
    bc = bpe_token_counts(token_docs_ds, n_merges=4, mode="broadcast")
    for part in (
        bpe_token_counts(token_docs_ds, n_merges=4, mode="partition",
                         num_partitions=4),
        bpe_token_counts(token_docs_ds, n_merges=4, broadcast_limit=1,
                         num_partitions=4),
    ):
        _eq(bc, part, ["doc_id"])


def test_bpe_swap_distributed_trained(token_docs_ds, monkeypatch):
    import engine.bpe as bpe_mod

    monkeypatch.setattr(bpe_mod, "LOCAL_VOCAB_LIMIT", 0)
    bc = bpe_token_counts(token_docs_ds, n_merges=4, mode="broadcast")
    part = bpe_token_counts(token_docs_ds, n_merges=4, mode="partition",
                            num_partitions=4)
    _eq(bc, part, ["doc_id"])


def test_bad_mode_raises(docs_ds):
    for fn, kw in (
        (line_dedup, {}),
        (exact_substring_dedup, {}),
        (bpe_token_counts, {}),
        (jaccard_similarity_join_prefix, {}),
    ):
        with pytest.raises(ValueError, match="unknown mode"):
            fn(docs_ds, mode="bogus", **kw).materialize()


# ------------------------------------------------- engine.joins.lookup

_PROBE = pa.table(
    {
        "k": pa.array([1, 2, None, 4, 5, 2**60, None, 7, 2], pa.int64()),
        "s": pa.array(["a", "b", None, "d", "e", "f", "g", None, "b"]),
        "p": pa.array(np.arange(9, dtype=np.int64)),
    }
)
# Repeated and null keys on the build side; 2**60 is exact only as int64.
_BUILD = pa.table(
    {
        "bk": pa.array([2, 2, None, 5, 2**60, 9], pa.int64()),
        "bs": pa.array(["b", "b", "x", None, "f", "z"]),
    }
)
_UNIQUE_BUILD = pa.table(
    {
        "bk": pa.array([2, None, 5, 2**60, 9], pa.int64()),
        "v": pa.array(["two", "null key", "five", "big", None]),
    }
)
_ROUTES = {"broadcast": 1 << 40, "partition": 0}
# Expected probe rows (``p``) and appended column per direct case.
_EXPECTED = {
    "semi_nulls": {"p": [1, 4, 5, 8]},
    "anti_nulls": {"p": [0, 2, 3, 6, 7]},
    "flag_nulls": {"hit": [False, True, False, False, True, True, False, False, True]},
    "left_nulls": {"v": [None, "two", None, None, "five", "big", None, None, "two"]},
    "semi_empty": {"p": []},
    "anti_empty": {"p": list(range(9))},
    "flag_empty": {"hit": [False] * 9},
    "left_empty": {"v": [None] * 9},
    "flag_join": {"hit": [False, True, False, False, False, True, False, False, True]},
    "candidate_docs": {"doc_id": [3, 7, 9, 12]},
}


def _direct(how: str, empty: bool):
    def run(request):
        from engine.joins import lookup

        build = _UNIQUE_BUILD if how == "left" else _BUILD
        kw = {"left": {"take": ["v"]}, "flag": {"flag_name": "hit"}}.get(how, {})
        out = lookup(
            rd.from_arrow(_PROBE).repartition(3),
            rd.from_arrow(build.slice(0, 0) if empty else build).repartition(2),
            "k", build_key="bk", how=how, **kw,
        )
        return out, ["p"]

    return run


def _flag_join(request):
    from engine.analytics import flag_join

    probe = rd.from_arrow(_PROBE).repartition(3)
    build = rd.from_arrow(_BUILD).repartition(2)
    return flag_join(probe, build, "s", "bs", "hit"), ["p"]


def _candidate_docs(request):
    from engine.dedupe import candidate_docs

    docs = pa.table(
        {"doc_id": pa.array(np.arange(60, dtype=np.int64)),
         "text": pa.array([f"doc {i}" for i in range(60)])}
    )
    pairs = pa.table(
        {"id_a": pa.array([3, 3, 7], pa.int64()), "id_b": pa.array([9, 12, 9], pa.int64())}
    )
    out = candidate_docs(rd.from_arrow(docs).repartition(4), rd.from_arrow(pairs))
    return out, ["doc_id"]


def _crawl_ingest(request):
    from engine.crawl import crawl_ingest, make_crawl_corpus

    tbl, _ = make_crawl_corpus(120)
    return crawl_ingest(rd.from_arrow(tbl).repartition(7)), ["doc_id"]


def _web_refresh(request):
    from engine.queries import REGISTRY

    fn, _ = REGISTRY["web_refresh_pipeline"]
    return fn("sf0.001"), ["page_id"]


def _canonical_url_dedup(request):
    ds = rd.from_arrow(make_messy_urls_table(400).select(["page_id", "url"])).repartition(5)
    return canonical_url_dedup(ds, num_partitions=7), ["page_id"]


_COOC_KEYS = ["lift_ppm", "pair_cnt", "left_tok", "right_tok"]


def _cooc_lift(request):
    ds = request.getfixturevalue("token_docs_ds")
    return cooc_lift(ds, min_count=3, k=30, num_partitions=8), _COOC_KEYS


def _cooc_lift_empty(request):
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    out = cooc_lift(ds, min_count=3, k=30, num_partitions=8)
    assert out.schema().names == ["left_tok", "right_tok", "pair_cnt", "lift_ppm"]
    return out, _COOC_KEYS


_SITES = {
    **{f"{how}_{inp}": _direct(how, inp == "empty")
       for inp in ("nulls", "empty") for how in ("semi", "anti", "flag", "left")},
    "flag_join": _flag_join,
    "candidate_docs": _candidate_docs,
    "crawl_ingest": _crawl_ingest,
    "web_refresh": _web_refresh,
    "canonical_url_dedup": _canonical_url_dedup,
    "cooc_lift": _cooc_lift,
    "cooc_lift_empty": _cooc_lift_empty,
}
_results: dict = {}


def _sorted_table(ds, keys):
    parts = [b for b in ds.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
    if not parts:
        return None
    t = pa.concat_tables(parts)
    return t.sort_by([(k, "ascending") for k in keys]).combine_chunks()


def _run(site, route, monkeypatch, request):
    """One site on one route (``BROADCAST_MAX_KEYS`` pinned while the
    site builds and runs its plan), cached for the other route's case."""
    import engine.joins as joins

    if (site, route) not in _results:
        monkeypatch.setattr(joins, "BROADCAST_MAX_KEYS", _ROUTES[route])
        ds, keys = _SITES[site](request)
        _results[(site, route)] = _sorted_table(ds, keys)
    return _results[(site, route)]


@pytest.mark.parametrize("route", list(_ROUTES))
@pytest.mark.parametrize("site", list(_SITES))
def test_lookup_route_parity(ray_session, site, route, monkeypatch, request):
    """Each route's output is bit-identical (values, types, nulls) to
    the other route's, and matches the expected rows where given."""
    got = _run(site, route, monkeypatch, request)
    other = _run(site, "partition" if route == "broadcast" else "broadcast", monkeypatch, request)
    if got is None or other is None:
        assert got is None and other is None
    else:
        assert got.schema == other.schema and got.equals(other)
    for col, want in _EXPECTED.get(site, {}).items():
        assert (got[col].to_pylist() if got is not None else []) == want


def test_lookup_left_rejects_repeated_build_keys(ray_session):
    from engine.joins import lookup

    with pytest.raises(ValueError, match="not unique"):
        lookup(rd.from_arrow(_PROBE), rd.from_arrow(_BUILD), "k", build_key="bk", how="left")
