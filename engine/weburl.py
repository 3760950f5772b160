"""URL canonicalization + canonical-URL dedup (SURVEY §2 X31).

The first dedup stage of every web-crawl pipeline (CCNet, RefinedWeb,
C4 all dedupe or group by URL before touching text): a crawl carries
the same page under many surface URL forms — case-varied scheme/host,
``www.`` prefixes, explicit default ports, tracking query parameters,
reordered query parameters, fragments, trailing slashes.  This module
maps every form to ONE canonical string with pure vectorized Arrow
kernels and reduces per-canonical-URL groups with the engine's
combiner machinery.

Canonical rule (applied to well-formed absolute ``scheme://...`` URLs;
ASCII corpus contract — both engines compare bytewise):

1. strip the fragment (first ``#`` to end);
2. scheme -> lowercase;
3. host -> lowercase, then strip one leading ``www.``;
4. drop the port iff it is the scheme default (http:80, https:443);
5. strip ALL trailing ``/`` from the path (so ``https://h/`` ==
   ``https://h``);
6. query: split on ``&``; drop empty parts and tracking parameters
   (name in ``utm_*``, ``fbclid``, ``gclid``, ``ref``, ``mc_cid``,
   ``mc_eid``); SORT the survivors bytewise; drop the ``?`` when none
   survive.

Both engines implement the rule from the same RE2 patterns (the
pyarrow regex strings transfer verbatim into the DuckDB mirror — the
textops tokenizer precedent).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

# One anchored RE2 pattern per URL piece; group `g` is the piece.
# These strings are the SINGLE SOURCE for both engines: the DuckDB
# mirror in engine/queries.py embeds them with (?P<g>) spelled as a
# plain capture group — change them together.
RE_SCHEME = r"^(?P<g>[A-Za-z][A-Za-z0-9+.-]*)://"
RE_HOST = r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<g>[^/:?#]+)"
RE_PORT = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]+:(?P<g>[0-9]+)"
RE_PATH = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+(?P<g>/[^?#]*)"
RE_QUERY = r"^[^?]*\?(?P<g>.*)$"
RE_TRACKING = r"^(utm_[a-z0-9]*|fbclid|gclid|ref|mc_cid|mc_eid)(=|$)"


def canonicalize_urls(arr) -> pa.Array:
    """Vectorized canonical form of every URL in a string array.

    Zero Python loops over rows: piece extraction is one RE2 kernel
    per piece, query-parameter filtering is one flat regex match, the
    bytewise parameter sort is one ``np.lexsort`` over the flattened
    (row, param) pairs, and reassembly is ListArray offsets +
    ``binary_join`` (+ ``binary_join_element_wise`` int-free concat —
    the np.char lesson).
    """
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    u0 = pc.replace_substring_regex(arr, "#.*$", "")

    def ext(pattern: str) -> pa.Array:
        return pc.fill_null(pc.struct_field(pc.extract_regex(u0, pattern), "g"), "")

    scheme = pc.ascii_lower(ext(RE_SCHEME))
    host = pc.replace_substring_regex(pc.ascii_lower(ext(RE_HOST)), r"^www\.", "")
    port = ext(RE_PORT)
    path = pc.replace_substring_regex(ext(RE_PATH), "/+$", "")
    query = ext(RE_QUERY)

    default = pc.or_(
        pc.and_(pc.equal(scheme, "http"), pc.equal(port, "80")),
        pc.and_(pc.equal(scheme, "https"), pc.equal(port, "443")),
    )
    portseg = pc.if_else(
        pc.or_(pc.equal(port, ""), default),
        "",
        pc.binary_join_element_wise(":", port, ""),
    )

    # Query params: flatten -> drop empties/tracking -> bytewise sort
    # within each row -> rebuild per-row "&"-joined strings.
    parts = pc.split_pattern(query, "&")
    flat = pc.list_flatten(parts)
    counts = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    flat_np = flat.to_numpy(zero_copy_only=False)
    tracking = pc.match_substring_regex(flat, RE_TRACKING).to_numpy(
        zero_copy_only=False
    )
    keep = (flat_np != "") & ~tracking.astype(bool)
    rid = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[keep]
    kept = flat_np[keep]
    order = np.lexsort((kept.astype("U"), rid))
    kept_counts = np.bincount(rid, minlength=len(counts)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(kept_counts)]).astype(np.int32)
    lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(kept[order].tolist(), pa.string())
    )
    qjoin = pc.binary_join(lists, "&")
    qseg = pc.if_else(
        pc.equal(qjoin, ""), "", pc.binary_join_element_wise("?", qjoin, "")
    )
    return pc.binary_join_element_wise(scheme, "://", host, portseg, path, qseg, "")


def canonical_url_dedup(
    ds: Dataset,
    id_col: str = "page_id",
    url_col: str = "url",
    num_partitions: int = 32,
) -> Dataset:
    """Per-row canonical URL + canonical-group verdicts: ``id_col, url,
    canon_url, n_forms (group size), keeper_id (min id of the group),
    is_keeper``.

    Scale shape (100 TB): canonicalization is a ZERO-SHUFFLE map; the
    group reduction ships only (canon_digest u64, id) int pairs into
    :func:`engine.shuffle.grouped_count_sums` (per-block combiner
    partials — a hot canonical URL contributes one partial row per
    block, and ``salts`` protection is available there if crawl dups
    are Zipfian). The merged ``digest -> (cnt, min_id)`` group table
    joins back to the rows through :func:`engine.joins.lookup`: a
    broadcast searchsorted while it fits, past that (at 10^12 pages
    the keeper table WILL) a bucketed hash join that ships (digest,
    cnt, min_id) int rows only.
    Exactness is digest-level (64-bit FNV of the canonical bytes — the
    content_digests precedent); the DuckDB mirror groups by the
    LITERAL canonical string, so the gate cross-checks digest- vs
    text-exactness on the corpus.
    """
    import pyarrow.compute as pc

    from engine.dedupe import _fnv1a_tokens
    from engine.joins import lookup
    from engine.shuffle import grouped_count_sums

    def canon_rows(b: pa.Table) -> pa.Table:
        canon = canonicalize_urls(b[url_col])
        h = _fnv1a_tokens(pc.cast(canon, pa.binary()).to_pylist()).view(np.int64)
        return pa.table(
            {
                id_col: b[id_col],
                url_col: b[url_col],
                "canon_url": canon,
                "canon_digest": pa.array(h),
            }
        )

    rows = ds.select_columns([id_col, url_col]).map_batches(
        canon_rows, batch_format="pyarrow"
    )
    groups = grouped_count_sums(
        rows.select_columns([id_col, "canon_digest"]),
        "canon_digest",
        min_cols=[id_col],
        num_partitions=num_partitions,
    )
    min_id = f"min_{id_col}"
    joined = lookup(rows, groups, "canon_digest", how="inner", take=["cnt", min_id])

    def finish(b: pa.Table) -> pa.Table:
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        kk = b[min_id].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: ids,
                url_col: b[url_col],
                "canon_url": b["canon_url"],
                "n_forms": pc.cast(b["cnt"], pa.int64()),
                "keeper_id": pa.array(kk),
                "is_keeper": pa.array(kk == idv),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------- corpus


def make_messy_urls_table(n: int, seed: int = 23) -> pa.Table:
    """Deterministic messy-URL corpus: every row is a surface form of a
    canonical identity (``truth_canon`` column — oracle ground truth,
    the pages-table idiom; gate queries read only page_id/url).  The
    messy transforms are exactly the rule's invertible set: case, www,
    explicit default ports, tracking params, param reorder, fragments,
    trailing slashes, empty ``&&`` parts, lone ``?``.  Non-default
    ports (:8080) appear in BOTH the truth and the messy form."""
    rng = np.random.default_rng(seed)
    n_sites = max(3, n // 16)
    n_canon = max(2, int(n * 0.6))
    urls, canons = [], []
    track_pool = [
        "utm_source=feed",
        "utm_campaign=x9",
        "utm_",  # bare tracking name, no '='
        "fbclid=AbC123",
        "gclid=zz-7",
        "ref=home",
        "mc_cid=77",
        "mc_eid=e1",
    ]
    for i in range(n):
        k = i % n_canon
        scheme = "https" if k % 4 else "http"
        host = f"site{k % n_sites}.example"
        port = ":8080" if k % 7 == 3 else ""
        path = "" if k % 11 == 0 else f"/a{k % 5}/p{k}"
        params = []
        if k % 13:
            params.append(f"id={k}")
            if k % 3:
                params.append("q=x")
            if k % 5 == 2:
                params.append("b")  # valueless param, kept
        canon_q = "&".join(sorted(params))
        canon = f"{scheme}://{host}{port}{path}" + (f"?{canon_q}" if canon_q else "")
        canons.append(canon)

        # Messy surface form (rng-driven, canonicalizes back to canon).
        s = scheme.upper() if rng.random() < 0.3 else scheme.capitalize() if rng.random() < 0.3 else scheme
        h = host.upper() if rng.random() < 0.25 else host.title() if rng.random() < 0.25 else host
        if rng.random() < 0.4:
            h = "www." + h
        p = port
        if not port and rng.random() < 0.3:
            p = ":443" if scheme == "https" else ":80"
        pth = path
        if rng.random() < 0.3:
            pth = (pth if pth else "") + "/" * int(rng.integers(1, 3))
        q = list(params)
        for t in rng.choice(track_pool, size=int(rng.integers(0, 3)), replace=False):
            q.insert(int(rng.integers(0, len(q) + 1)), t)
        if q and rng.random() < 0.15:
            q.insert(int(rng.integers(0, len(q) + 1)), "")  # "&&" artifact
        if len(q) > 1:
            q = [q[j] for j in rng.permutation(len(q))]
        qs = "&".join(q)
        frag = f"#sec{int(rng.integers(0, 9))}" if rng.random() < 0.3 else ""
        if not qs and rng.random() < 0.1:
            qs_part = "?"  # lone '?', canonically dropped
        else:
            qs_part = f"?{qs}" if qs else ""
        urls.append(f"{s}://{h}{p}{pth}{qs_part}{frag}")
    return pa.table(
        {
            "page_id": pa.array(np.arange(n, dtype=np.int64)),
            "url": pa.array(urls, pa.string()),
            "truth_canon": pa.array(canons, pa.string()),
        }
    )


def urls_corpus_parquet(n: int) -> str:
    """Persist (once, cached) the messy-URL gate corpus so BOTH engines
    read identical bytes (the media_corpus_parquet idiom)."""
    import os

    import pyarrow.parquet as pq

    root = f"/tmp/geokit_weburl/n{n}"
    path = os.path.join(root, "urls.parquet")
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(root, exist_ok=True)
    pq.write_table(make_messy_urls_table(n), path)
    open(done, "w").write("ok")
    return path


# ----------------- domain blocklist filtering (X43, round 4)
#
# The URL-level safety/quality filter every web pipeline runs before
# touching text (CCNet/RefinedWeb drop UT1-blocklisted domains):
# a host is blocked iff it EQUALS a blocklisted registrable domain or
# is a subdomain of one (label-boundary suffix: host == d or host
# ends with "." + d — "notads.example" must NOT match "ads.example").
#
# Scale design: real blocklists are ~100k-4M domains — far under the
# broadcast bound — so the list ships ONCE as a sorted uint64 array of
# label-Horner digests (ray.put / actor state; the dedup keeper-set
# precedent). Per batch the engine computes EVERY label-suffix digest
# of every host in one backward vectorized Horner pass over the
# split-label FNV hashes (O(total labels), never materializing suffix
# strings), membership-tests them with one searchsorted, and
# literal-verifies the rare hits (collision-proof: a digest hit only
# flags a candidate; the match is confirmed bytewise). The DuckDB
# mirror works on LITERAL suffix strings, cross-checking the digest
# reduction end to end (the canonical_urls precedent).

BLOCKLIST_DEFAULT = [
    "ads.example",        # blocks ads.example and *.ads.example
    "bad.ads.example",    # nested under the previous (longest match)
    "tracker.io",
    "site3.example",      # one whole site from the site pool
    "evil.test",
]


def _label_suffix_digests(
    label_hashes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Backward Horner over per-label FNV hashes: for a host with
    labels l_i..l_{d-1} at flat positions [o, o+d), the suffix digest
    at position o+i is S(i) = fnv(l_i) + PRIME * S(i+1) (mod 2^64),
    S(d-1) = fnv(l_{d-1}). One vectorized pass per DEPTH LEVEL (hosts
    have <= ~6 labels), O(total labels) work overall."""
    from engine.dedupe import FNV_PRIME

    n_rows = len(offsets) - 1
    depths = np.diff(offsets)
    out = np.zeros(len(label_hashes), dtype=np.uint64)
    if len(label_hashes) == 0:
        return out
    max_d = int(depths.max())
    starts = offsets[:-1]
    with np.errstate(over="ignore"):
        # level j counts from the END of each host's label list.
        for j in range(max_d):
            rows = np.flatnonzero(depths > j)
            pos = starts[rows] + (depths[rows] - 1 - j)
            if j == 0:
                out[pos] = label_hashes[pos]
            else:
                out[pos] = label_hashes[pos] + FNV_PRIME * out[pos + 1]
    return out


def _domain_digest(domain: str) -> np.uint64:
    """Digest of one blocklist domain under the same suffix rule."""
    from engine.dedupe import FNV_PRIME, _fnv1a_tokens

    labels = domain.encode("utf-8").split(b".")
    lh = _fnv1a_tokens(labels)
    acc = lh[-1]
    with np.errstate(over="ignore"):
        for h in lh[-2::-1]:
            acc = h + FNV_PRIME * acc
    return acc


def blocklist_filter(
    ds: Dataset,
    blocklist: list[str] | None = None,
    id_col: str = "page_id",
    host_col: str = "host",
) -> Dataset:
    """Annotate every row with ``blocked`` (any label-suffix of the
    host is a blocklisted domain) and ``matched_domain`` (the LONGEST
    matching domain, null when clean). Zero shuffles: the blocklist
    digest array broadcasts once, hosts never move."""
    import pyarrow.compute as pc

    from engine.dedupe import _fnv1a_tokens

    bl = list(BLOCKLIST_DEFAULT if blocklist is None else blocklist)
    dig = np.array([_domain_digest(d) for d in bl], dtype=np.uint64)
    order = np.argsort(dig)
    dig_sorted = dig[order]
    domains_sorted = np.array(bl, dtype=object)[order]
    if len(np.unique(dig_sorted)) != len(bl):
        # 64-bit digests of a deduplicated blocklist collide with
        # probability ~n^2/2^65; fail loudly rather than mis-verify.
        raise ValueError("blocklist digest collision — use a wider digest")

    def annotate(b: pa.Table) -> pa.Table:
        hosts = b[host_col]
        if isinstance(hosts, pa.ChunkedArray):
            hosts = hosts.combine_chunks()
        if len(dig_sorted) == 0:  # empty blocklist: everything clean
            return pa.table(
                {
                    id_col: b[id_col],
                    host_col: hosts,
                    "blocked": pa.array(np.zeros(b.num_rows, dtype=bool)),
                    "matched_domain": pa.array([None] * b.num_rows, pa.string()),
                }
            )
        labels = pc.split_pattern(hosts, ".")
        flat = labels.values
        offsets = labels.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lh = _fnv1a_tokens([s.encode("utf-8") for s in flat.to_pylist()])
        sh = _label_suffix_digests(lh, offsets)
        idx = np.searchsorted(dig_sorted, sh)
        idx_c = np.minimum(idx, len(dig_sorted) - 1)
        cand = dig_sorted[idx_c] == sh  # flat positions whose digest hits
        blocked = np.zeros(b.num_rows, dtype=bool)
        matched = np.full(b.num_rows, None, dtype=object)
        if cand.any():
            host_py = hosts.to_pylist()
            flat_rows = np.repeat(
                np.arange(b.num_rows, dtype=np.int64), np.diff(offsets)
            )
            # Candidate-scale literal verify, ascending flat position
            # per row => the FIRST confirmed hit is the longest suffix.
            for p in np.flatnonzero(cand):
                r = int(flat_rows[p])
                if blocked[r]:
                    continue
                i = int(p - offsets[r])
                suffix = ".".join(host_py[r].split(".")[i:])
                d = domains_sorted[int(idx_c[p])]
                if suffix == d:
                    blocked[r] = True
                    matched[r] = d
        return pa.table(
            {
                id_col: b[id_col],
                host_col: hosts,
                "blocked": pa.array(blocked),
                "matched_domain": pa.array(matched, pa.string()),
            }
        )

    return ds.map_batches(annotate, batch_format="pyarrow")


def make_hosts_table(n: int, seed: int = 31) -> pa.Table:
    """Deterministic host corpus for the blocklist gate: a mix of
    clean sites, blocked sites, subdomains of blocked domains (1-3
    levels), nested-blocklist hits, and the adversarial boundary
    cases (notads.example; tracker.io as a NON-suffix infix). Truth
    columns (t_blocked / t_matched) are computed by the scalar rule
    at generation time — the pages-table idiom."""
    rng = np.random.default_rng(seed)
    hosts = []
    for i in range(n):
        k = i % 17
        if k < 4:
            h = f"site{i % 7}.example"           # site3.* blocked
        elif k < 6:
            h = f"www.site{i % 7}.example"
        elif k == 6:
            h = f"cdn{i % 3}.ads.example"
        elif k == 7:
            h = "ads.example"
        elif k == 8:
            h = "bad.ads.example"
        elif k == 9:
            h = f"x{i % 5}.bad.ads.example"
        elif k == 10:
            h = "notads.example"                  # boundary: clean
        elif k == 11:
            h = f"n{i % 4}.notads.example"        # boundary: clean
        elif k == 12:
            h = f"t{i % 4}.tracker.io"
        elif k == 13:
            h = "tracker.io.example"              # infix, not suffix: clean
        elif k == 14:
            h = f"sub{i % 3}.evil.test"
        elif k == 15:
            h = "xevil.test"                      # boundary: clean
        else:
            h = f"a{int(rng.integers(0, 9))}.b.site{i % 5}.example"
        hosts.append(h)

    def truth(h: str):
        best = None
        for d in BLOCKLIST_DEFAULT:
            if h == d or h.endswith("." + d):
                if best is None or len(d) > len(best):
                    best = d
        return best

    t_matched = [truth(h) for h in hosts]
    return pa.table(
        {
            "page_id": pa.array(np.arange(n, dtype=np.int64)),
            "host": pa.array(hosts, pa.string()),
            "t_blocked": pa.array([m is not None for m in t_matched]),
            "t_matched": pa.array(t_matched, pa.string()),
        }
    )


def hosts_corpus_parquet(n: int) -> str:
    """Persist (once, cached) the hosts gate corpus so BOTH engines
    read identical bytes (the urls_corpus_parquet idiom)."""
    import os

    import pyarrow.parquet as pq

    root = f"/tmp/geokit_webhosts/n{n}"
    path = os.path.join(root, "hosts.parquet")
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return path
    os.makedirs(root, exist_ok=True)
    pq.write_table(make_hosts_table(n), path)
    open(done, "w").write("ok")
    return path
