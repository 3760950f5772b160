"""X31 URL canonicalization + canonical-URL dedup tests: an
independent urllib.parse-based brute oracle, planted edge forms, the
synthetic corpus' ground-truth column, block-layout invariance, and
DuckDB mirror parity."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

_TRACK = re.compile(r"^(utm_[a-z0-9]*|fbclid|gclid|ref|mc_cid|mc_eid)(=|$)")


def _brute_canon(url: str) -> str:
    """Independent reference: urllib parse + plain-Python rule."""
    from urllib.parse import urlsplit

    sp = urlsplit(url)  # strips the fragment for us
    scheme = sp.scheme.lower()
    host = (sp.hostname or "").lower()
    if host.startswith("www."):
        host = host[4:]
    port = ""
    if sp.port is not None and not (
        (scheme == "http" and sp.port == 80)
        or (scheme == "https" and sp.port == 443)
    ):
        port = f":{sp.port}"
    path = sp.path.rstrip("/")
    params = [p for p in sp.query.split("&") if p != "" and not _TRACK.match(p)]
    q = "&".join(sorted(params))
    return f"{scheme}://{host}{port}{path}" + (f"?{q}" if q else "")


EDGE_URLS = [
    "HTTPS://WWW.Ex.Example:443/a/b/?z=2&utm_source=f&a=1#frag",
    "https://ex.example/a/b?a=1&z=2",
    "http://Ex.Example:80",
    "http://ex.example:8080/p/",          # non-default port kept
    "https://ex.example/?",               # lone ? dropped, root slash stripped
    "https://ex.example///",              # stacked trailing slashes
    "https://ex.example/p?a=1&&b=2",      # empty && part dropped
    "https://ex.example/p?utm_campaign=x&fbclid=1&gclid=2&ref=h&mc_cid=1&mc_eid=2",
    "https://ex.example/p?utm_",          # bare tracking name, no '='
    "https://ex.example/p?refx=1",        # NOT tracking (prefix only)
    "https://ex.example/p?b&a=2&a=1",     # valueless + duplicate names sorted
    "HtTp://WwW.a.EXAMPLE/Mixed/Case/Path",  # path case preserved
]


def test_canonicalize_urls_matches_urllib_brute():
    from engine.weburl import canonicalize_urls, make_messy_urls_table

    tbl = make_messy_urls_table(400, seed=91)
    urls = EDGE_URLS + tbl["url"].to_pylist()
    got = canonicalize_urls(pa.array(urls, pa.string())).to_pylist()
    for u, g in zip(urls, got):
        assert g == _brute_canon(u), u


def test_corpus_truth_column_is_the_canonical_form():
    from engine.weburl import canonicalize_urls, make_messy_urls_table

    tbl = make_messy_urls_table(1000)
    got = canonicalize_urls(tbl["url"]).to_pylist()
    truth = tbl["truth_canon"].to_pylist()
    assert got == truth
    # The corpus actually exercises dedup: dup groups exist.
    assert len(set(truth)) < len(truth)


def test_canonical_url_dedup_matches_pandas_oracle(ray_session):
    import ray

    from engine.weburl import canonical_url_dedup, make_messy_urls_table

    tbl = make_messy_urls_table(600, seed=5).select(["page_id", "url"])
    truth = make_messy_urls_table(600, seed=5)["truth_canon"].to_pylist()
    df = pd.DataFrame({"page_id": tbl["page_id"].to_numpy(), "canon": truth})
    grp = df.groupby("canon")["page_id"]
    n_forms = grp.transform("size").to_numpy()
    keeper = grp.transform("min").to_numpy()
    for blocks in (1, 4, 9):
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        got = (
            canonical_url_dedup(ds, num_partitions=4)
            .to_pandas()
            .sort_values("page_id")
            .reset_index(drop=True)
        )
        assert (got["canon_url"].to_numpy() == np.array(truth)).all(), blocks
        assert (got["n_forms"].to_numpy() == n_forms).all(), blocks
        assert (got["keeper_id"].to_numpy() == keeper).all(), blocks
        assert (
            got["is_keeper"].to_numpy() == (keeper == df["page_id"].to_numpy())
        ).all(), blocks


def test_canonical_urls_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY, _sql_canonical_urls
    from engine.weburl import urls_corpus_parquet

    fn, _ = REGISTRY["canonical_urls"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    path = urls_corpus_parquet(500)  # sf0.001 -> n=500 (sf_to_n_rows floor)
    con = duckdb.connect()
    sql_df = con.sql(_sql_canonical_urls(path)).df()
    assert len(ray_df) == len(sql_df) == 500
    assert ray_df["n_forms"].max() > 1
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values("page_id", kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values("page_id", kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


# ----------------- domain blocklist filtering (X43, round 4)


@pytest.mark.usefixtures("ray_session")
def test_blocklist_filter_matches_truth_columns():
    import ray.data as rd

    from engine.weburl import blocklist_filter, make_hosts_table

    t = make_hosts_table(600)
    out = (
        blocklist_filter(rd.from_arrow(t.select(["page_id", "host"])))
        .to_pandas()
        .sort_values("page_id")
        .reset_index(drop=True)
    )
    tr = t.to_pandas().sort_values("page_id").reset_index(drop=True)
    assert (out.blocked.to_numpy() == tr.t_blocked.to_numpy()).all()
    assert (out.matched_domain.fillna("-") == tr.t_matched.fillna("-")).all()


@pytest.mark.usefixtures("ray_session")
def test_blocklist_edge_semantics():
    import ray.data as rd

    from engine.weburl import blocklist_filter

    hosts = [
        "ads.example",            # exact match
        "deep.a.b.ads.example",   # deep subdomain
        "notads.example",         # label boundary: clean
        "ads.example.org",        # blocked domain as INFIX: clean
        "x",                      # single label: clean
        "tracker.io",
    ]
    t = pa.table(
        {"page_id": pa.array(np.arange(len(hosts), dtype=np.int64)), "host": pa.array(hosts)}
    )
    out = (
        blocklist_filter(rd.from_arrow(t))
        .to_pandas()
        .sort_values("page_id")
        .reset_index(drop=True)
    )
    assert out.blocked.tolist() == [True, True, False, False, False, True]
    # empty blocklist -> everything clean
    out2 = blocklist_filter(rd.from_arrow(t), blocklist=[]).to_pandas()
    assert not out2.blocked.any()
    # nested blocklist entries -> the LONGEST matching domain wins
    out3 = (
        blocklist_filter(rd.from_arrow(t), blocklist=["example", "ads.example"])
        .to_pandas()
        .sort_values("page_id")
        .reset_index(drop=True)
    )
    assert out3.matched_domain.tolist()[:4] == [
        "ads.example",
        "ads.example",
        "example",
        None,
    ]
