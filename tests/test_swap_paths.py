"""Route parity: every size-adaptive operator gives the same answer
on its broadcast route and on its partition route.

There is one route rule: an operator broadcasts its lookup state when
that state has at most ``engine.joins.BROADCAST_MAX_KEYS`` keys (or
rows), and co-partitions otherwise. The operators below take no
``mode=`` switch or cap of their own, so ``test_lookup_route_parity``
forces a route by pinning the constant to a large value (broadcast)
or 0 (partition) and checks that the two outputs are Arrow-equal,
types included. Its sites:

- ``engine.joins.lookup`` itself (null keys on both sides, an empty
  build side) and its callers: flag_join, candidate_docs,
  crawl_ingest, web_refresh, canonical_url_dedup, cooc_lift;
- the operators that fuse the probe into their own payload:
  line_dedup and exact_substring_dedup (with and without drops),
  connected_components_distributed's rounds (pinning
  ``dedupe.CC_LOCAL_MAX_EDGES`` to 0), jaccard_similarity_join_prefix
  (shingle-df map), bpe_token_counts (with driver-local and with
  distributed training, pinning ``bpe.LOCAL_VOCAB_LIMIT``),
  robots_filter (host-prefix rules), snapshot_merge (changelog
  winners), minhash_dedup_verdict (label join, with and without
  duplicates) and incremental_minhash_dedup's distributed verify arm.
"""

from __future__ import annotations

import numpy as np
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
_CC_BASE = (1 << 60) + 1  # exact only as int64
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
    "minhash_dedup_verdict": {"keep": [i not in (60, 61) for i in range(62)]},
    "minhash_dedup_verdict_no_dups": {"keep": [True] * 60},
    "line_dedup_no_dups": {"n_dropped": [0] * 40},
    "exact_substring_dedup_no_dups": {"n_removed": [0] * 40},
    # doc ids 1 2 3 4 7 10 11 12 40 100 B B+2 B+4 (B = 2^60 + 1)
    "connected_components_rounds": {
        "group_id": [1] * 4 + [7] + [10] * 3 + [7, 7] + [_CC_BASE] * 3
    },
    # the first ten are copies of indexed docs, the rest are fresh
    "incremental_minhash_dedup": {"keep": [False] * 10 + [True] * 10},
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


# --------------------------------------- operators with their own payload


def _line_dedup(request):
    return line_dedup(request.getfixturevalue("docs_ds"), num_partitions=5), ["doc_id"]


def _substr_dedup(request):
    ds = request.getfixturevalue("token_docs_ds")
    return exact_substring_dedup(ds, L=8, num_partitions=4), ["doc_id"]


def _unique_docs_ds() -> rd.Dataset:
    # every line and every 8-token window occurs once: no drops, so
    # the blob table that meets the corpus is empty
    texts = ["\n".join(f"d{i} l{j} " + " ".join(f"t{i}x{j}x{k}" for k in range(9))
                       for j in range(3)) for i in range(40)]
    t = pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)), "text": pa.array(texts)})
    return rd.from_arrow(t).repartition(3)


def _line_dedup_no_dups(request):
    return line_dedup(_unique_docs_ds(), num_partitions=5), ["doc_id"]


def _substr_dedup_no_dups(request):
    return exact_substring_dedup(_unique_docs_ds(), L=8, num_partitions=4), ["doc_id"]


def _connected_components_rounds(request):
    import engine.dedupe as dedupe

    # 0 sends every graph to the rounds, whose label fetch is a lookup
    request.getfixturevalue("monkeypatch").setattr(dedupe, "CC_LOCAL_MAX_EDGES", 0)
    edges = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (12, 10), (100, 7), (7, 40),
             (_CC_BASE, _CC_BASE + 2), (_CC_BASE + 2, _CC_BASE + 4)]
    pairs = pa.table({"id_a": pa.array([a for a, _ in edges], pa.int64()),
                      "id_b": pa.array([b for _, b in edges], pa.int64())})
    out = dedupe.connected_components_distributed(rd.from_arrow(pairs).repartition(3), num_partitions=4)
    return out, ["doc_id"]


def _jaccard_prefix(request):
    ds = request.getfixturevalue("token_docs_ds")
    return jaccard_similarity_join_prefix(ds, num_partitions=8), ["id_a", "id_b"]


def _bpe_token_counts(local_vocab_limit: int):
    def run(request):
        import engine.bpe as bpe

        # 0 trains with the distributed loop, a huge value on the driver
        request.getfixturevalue("monkeypatch").setattr(bpe, "LOCAL_VOCAB_LIMIT", local_vocab_limit)
        ds = request.getfixturevalue("token_docs_ds")
        return bpe_token_counts(ds, n_merges=4, num_partitions=4), ["doc_id"]

    return run


def _robots_filter(request):
    from engine.robots import make_crawl_urls_table, make_robots_table, robots_filter

    urls = rd.from_arrow(make_crawl_urls_table(300, 50)).repartition(3)
    return robots_filter(urls, rd.from_arrow(make_robots_table(50)), num_partitions=5), ["url_id"]


def _snapshot_merge(request):
    from engine.cdc import snapshot_merge

    rng = np.random.default_rng(5)
    n, m = 400, 150
    base = pa.table(
        {"k": np.arange(n, dtype=np.int64), "seq": np.arange(n, dtype=np.int64) % 5,
         "val": rng.integers(0, 1000, n), "tag": [f"b{i % 9}" for i in range(n)]}
    )
    changelog = pa.table(
        {"k": rng.integers(0, n + 50, m), "seq": rng.integers(0, 9, m),
         "val": rng.integers(0, 1000, m), "tag": [f"c{i % 9}" for i in range(m)],
         "op": np.where(rng.random(m) < 0.3, "d", "u")}
    )
    out = snapshot_merge(
        rd.from_arrow(base).repartition(3), rd.from_arrow(changelog).repartition(2),
        key="k", num_partitions=8,
    )
    return out, ["k"]


def _near_dup_docs(with_dups: bool) -> pa.Table:
    rng = np.random.default_rng(31)
    vocab = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(60)]
    if with_dups:
        near = texts[5].split()
        near[3], near[17] = "edited", "tokens"
        texts += [" ".join(near), texts[10]]  # ids 60 (near dup of 5), 61 (copy of 10)
    return pa.table(
        {"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)), "text": pa.array(texts)}
    )


def _minhash_dedup_verdict(with_dups: bool):
    def run(request):
        from engine.dedupe import minhash_dedup_verdict

        ds = rd.from_arrow(_near_dup_docs(with_dups)).repartition(3)
        return minhash_dedup_verdict(ds, threshold=0.5), ["doc_id"]

    return run


def _incremental_minhash(request):
    import engine.dedupe as dedupe

    # 0 sends the verify to the hash-join arm, whose label join is a lookup
    request.getfixturevalue("monkeypatch").setattr(dedupe, "VERIFY_LOCAL_MAX_PAIRS", 0)
    old = _near_dup_docs(False)
    fresh = [" ".join(f"w{i}x{j}" for j in range(40)) for i in range(10)]
    new = pa.table(
        {"doc_id": pa.array(np.arange(1000, 1020, dtype=np.int64)),
         "text": pa.array(old["text"].to_pylist()[:10] + fresh)}
    )
    index = dedupe.minhash_index(rd.from_arrow(old).repartition(3)).materialize()
    out = dedupe.incremental_minhash_dedup(rd.from_arrow(new).repartition(2), index, num_partitions=8)
    return out, ["doc_id"]


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
    "line_dedup": _line_dedup,
    "exact_substring_dedup": _substr_dedup,
    "line_dedup_no_dups": _line_dedup_no_dups,
    "exact_substring_dedup_no_dups": _substr_dedup_no_dups,
    "connected_components_rounds": _connected_components_rounds,
    "jaccard_prefix": _jaccard_prefix,
    "bpe_token_counts_local": _bpe_token_counts(1 << 40),
    "bpe_token_counts_distributed": _bpe_token_counts(0),
    "robots_filter": _robots_filter,
    "snapshot_merge": _snapshot_merge,
    "minhash_dedup_verdict": _minhash_dedup_verdict(True),
    "minhash_dedup_verdict_no_dups": _minhash_dedup_verdict(False),
    "incremental_minhash_dedup": _incremental_minhash,
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
