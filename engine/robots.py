"""robots.txt parsing + longest-match URL filtering (X51).

The crawl-policy stage of a web-ingest pipeline: parse each host's
robots.txt into the rule group that applies to our crawler, then give
every candidate URL an allow/deny verdict. Upstream parity target:
the Robots Exclusion Protocol (RFC 9309) restricted to the subset
below — the SAME subset both the engine and the DuckDB gate mirror
implement, term for term:

- lines are split on '\n' ('\r' stripped first); '#' starts a comment
  (stripped to end-of-line); directives are case-insensitive and
  whitespace around name/value is trimmed;
- a GROUP is one or more consecutive ``User-agent:`` lines followed by
  rule lines; rule lines before any User-agent line are ignored;
- group selection per host: all groups naming the crawler's token
  exactly (case-insensitive) when any exist, else all ``*`` groups;
  the chosen groups' rules MERGE (RFC 9309 §2.2.1);
- rules are LITERAL path prefixes (the '*' / '$' wildcard extension is
  out of scope — a prefix containing '*' matches only the literal
  character); an EMPTY value ("Disallow:") means "nothing disallowed"
  and the rule is dropped (likewise empty Allow);
- verdict per URL: among rules of its host whose prefix is a prefix of
  the path, the LONGEST wins; at equal length Allow wins (RFC 9309
  §2.2.2 precedence); no applicable rule, or no robots.txt for the
  host, means allowed.

Scale shape: parsing is a zero-shuffle vectorized map over the robots
corpus (flatten lines with host repeats, one RE2 extract over the flat
line column, numpy cumsum group segmentation). Filtering is
host-keyed: the rules table broadcasts once (ray.put -> sorted-host
searchsorted + exploded pairwise prefix test per URL batch) when it
fits the documented guard, else one urls ∪ rules co-partition on host
(keyed_partition_map) computes the same verdict with zero broadcast —
both paths share the winner kernel and are pytest-equal.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

# Single source for both engines (the weburl precedent): the DuckDB
# mirror interpolates these exact patterns.
COMMENT_RE = r"#[^\n]*"
DIRECTIVE_RE = r"^\s*([A-Za-z-]+)\s*:\s*(.*?)\s*$"
_DIRECTIVE_RE_NAMED = r"^\s*(?P<d>[A-Za-z-]+)\s*:\s*(?P<v>.*?)\s*$"

DEFAULT_AGENT = "graftbot"


def parse_robots_batch(
    b: pa.Table,
    agent: str = DEFAULT_AGENT,
    host_col: str = "host",
    text_col: str = "robots_txt",
) -> pa.Table:
    """One robots-corpus batch -> (host, allow bool, prefix) rule rows
    for the group set that applies to ``agent``. Fully vectorized:
    comment strip + line split are Arrow kernels over the text column,
    directive extraction is ONE RE2 pass over the flat line column,
    group segmentation / selection is numpy over the flat arrays."""
    agent_l = agent.lower()
    hosts = b[host_col]
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    txt = b[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()

    clean = pc.replace_substring_regex(
        pc.replace_substring(txt, "\r", ""), COMMENT_RE, ""
    )
    lines = pc.split_pattern(clean, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    counts = np.diff(lines.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
    flat = lines.values
    host_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)

    ext = pc.extract_regex(flat, _DIRECTIVE_RE_NAMED)
    valid = pc.is_valid(ext).to_numpy(zero_copy_only=False)
    d = pc.utf8_lower(pc.struct_field(ext, "d")).to_numpy(zero_copy_only=False)
    v = pc.struct_field(ext, "v").to_numpy(zero_copy_only=False)

    is_ua = valid & (d == "user-agent")
    is_rule = valid & ((d == "allow") | (d == "disallow")) & (v != "")

    # group ids: a group starts at a user-agent line whose previous
    # line (within the host) is not a user-agent line
    prev_ua = np.concatenate([[False], is_ua[:-1]])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    if len(host_idx):
        prev_ua[starts] = False  # host boundary resets the run
    gid = np.cumsum(is_ua & ~prev_ua)  # global, unique across hosts
    # rules are valid only after >=1 user-agent line within the host
    ua_cum = np.cumsum(is_ua)
    ua_base = np.repeat(
        np.concatenate([[0], ua_cum[np.maximum(starts[1:] - 1, 0)]])
        if len(counts) > 1
        else np.zeros(1, dtype=np.int64),
        counts,
    )
    ua_seen = (ua_cum - ua_base) > 0

    # chosen group set per host: exact-agent groups if any, else '*'
    ua_rows = is_ua
    ua_host = host_idx[ua_rows]
    ua_gid = gid[ua_rows]
    ua_val = np.char.lower(v[ua_rows].astype(str)) if ua_rows.any() else np.array([], str)
    exact = ua_val == agent_l
    star = ua_val == "*"
    host_has_exact = np.zeros(len(counts), dtype=bool)
    if exact.any():
        host_has_exact[np.unique(ua_host[exact])] = True
    pick = np.where(host_has_exact[ua_host], exact, star)
    chosen = np.zeros(int(gid[-1]) + 1 if len(gid) else 1, dtype=bool)
    if pick.any():
        chosen[ua_gid[pick]] = True

    keep = is_rule & ua_seen & chosen[gid]
    return pa.table(
        {
            "host": hosts.take(pa.array(host_idx[keep])),
            "allow": pa.array(d[keep] == "allow"),
            "prefix": pa.array(v[keep].astype(str), pa.string()),
        }
    )


RULES_SCHEMA = pa.schema(
    [("host", pa.string()), ("allow", pa.bool_()), ("prefix", pa.string())]
)


def parse_robots(
    robots: Dataset,
    agent: str = DEFAULT_AGENT,
    host_col: str = "host",
    text_col: str = "robots_txt",
) -> Dataset:
    """Dataset of (host, allow, prefix) applicable-rule rows — one
    zero-shuffle map stage over the robots corpus."""
    return robots.map_batches(
        lambda b: parse_robots_batch(b, agent=agent, host_col=host_col, text_col=text_col),
        batch_format="pyarrow",
    )


def _winner_verdict(
    url_pos: np.ndarray,
    n_urls: int,
    pl: np.ndarray,
    allow: np.ndarray,
    matched: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared winner kernel over exploded (url x candidate-rule) rows:
    longest prefix wins, Allow wins length ties (== OR of allow among
    max-length matches). Returns (allowed, matched_pl) per url index;
    urls with no match stay (True, -1)."""
    allowed = np.ones(n_urls, dtype=bool)
    best_pl = np.full(n_urls, -1, dtype=np.int64)
    if matched.any():
        u = url_pos[matched]
        p = pl[matched]
        a = allow[matched]
        order = np.lexsort((a, p, u))  # within url: by length, then allow last
        u, p, a = u[order], p[order], a[order]
        last = np.concatenate([u[1:] != u[:-1], [True]])
        allowed[u[last]] = a[last]
        best_pl[u[last]] = p[last]
    return allowed, best_pl


def robots_filter(
    urls: Dataset,
    robots: Dataset,
    agent: str = DEFAULT_AGENT,
    url_id_col: str = "url_id",
    host_col: str = "host",
    path_col: str = "path",
    num_partitions: int = 16,
) -> Dataset:
    """Per-URL crawl-policy verdict: Dataset[url_id, host, path,
    allowed(bool), matched_pl(int64; -1 = no applicable rule)].

    The route is the ``engine.joins`` rule on the parsed rule count:
    at most ``joins.BROADCAST_MAX_KEYS`` rules -> broadcast (one
    ray.put of a host-sorted Arrow table; per batch: searchsorted
    host runs -> exploded candidate pairs -> one vectorized
    pairwise-prefix test); beyond it urls ∪ rules co-partition on
    host (keyed_partition_map) — the 100 TB path when the rules table
    outgrows a broadcast (100M hosts x dozens of rules). Both routes
    give the same rows (tests/test_swap_paths.py route parity)."""
    import ray

    from engine import joins
    from engine.shuffle import keyed_partition_map

    rules = parse_robots(robots, agent=agent).materialize()  # rule-scale

    out_schema = pa.schema(
        [
            (url_id_col, pa.int64()),
            (host_col, pa.string()),
            (path_col, pa.string()),
            ("allowed", pa.bool_()),
            ("matched_pl", pa.int64()),
        ]
    )

    if rules.count() <= joins.BROADCAST_MAX_KEYS:
        batches = list(rules.iter_batches(batch_size=None, batch_format="pyarrow"))
        tbl = (
            pa.concat_tables(batches, promote_options="default").select(RULES_SCHEMA.names)
            if batches
            else RULES_SCHEMA.empty_table()
        )
        r_host = tbl["host"].to_numpy(zero_copy_only=False).astype(str)
        order = np.argsort(r_host, kind="stable")
        r_host = r_host[order]
        r_prefix = tbl["prefix"].to_numpy(zero_copy_only=False).astype(str)[order]
        r_allow = tbl["allow"].to_numpy(zero_copy_only=False)[order]
        r_pl = np.char.str_len(r_prefix).astype(np.int64)
        ref = ray.put((r_host, r_prefix, r_allow, r_pl))

        class _Verdict:
            def __init__(self):
                self.r_host, self.r_prefix, self.r_allow, self.r_pl = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                b = b.combine_chunks()
                host = b[host_col].to_numpy(zero_copy_only=False).astype(str)
                path = b[path_col].to_numpy(zero_copy_only=False).astype(str)
                lo = np.searchsorted(self.r_host, host, side="left")
                hi = np.searchsorted(self.r_host, host, side="right")
                cnt = hi - lo
                url_pos = np.repeat(np.arange(len(host), dtype=np.int64), cnt)
                local = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
                    np.concatenate([[0], np.cumsum(cnt)[:-1]]).astype(np.int64), cnt
                )
                ridx = np.repeat(lo, cnt) + local
                # pairwise literal-prefix test (numpy's C elementwise
                # kernel; per-row patterns, which Arrow's scalar-only
                # starts_with cannot express)
                matched = np.char.startswith(path[url_pos], self.r_prefix[ridx])
                allowed, best_pl = _winner_verdict(
                    url_pos, len(host), self.r_pl[ridx], self.r_allow[ridx], matched
                )
                return pa.table(
                    {
                        url_id_col: b[url_id_col],
                        host_col: b[host_col],
                        path_col: b[path_col],
                        "allowed": pa.array(allowed),
                        "matched_pl": pa.array(best_pl),
                    }
                )

        return urls.map_batches(_Verdict, batch_format="pyarrow", concurrency=(1, 8))

    # partition path: urls ∪ rules co-located on host
    def tag_urls(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": b[host_col],
                "url_id": pc.cast(b[url_id_col], pa.int64()),
                "path": b[path_col],
                "allow": pa.nulls(b.num_rows, pa.bool_()),
                "prefix": pa.nulls(b.num_rows, pa.string()),
                "is_rule": pa.array(np.zeros(b.num_rows, dtype=bool)),
            }
        )

    def tag_rules(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": b["host"],
                "url_id": pa.nulls(b.num_rows, pa.int64()),
                "path": pa.nulls(b.num_rows, pa.string()),
                "allow": b["allow"],
                "prefix": b["prefix"],
                "is_rule": pa.array(np.ones(b.num_rows, dtype=bool)),
            }
        )

    both = urls.map_batches(tag_urls, batch_format="pyarrow").union(
        rules.map_batches(tag_rules, batch_format="pyarrow")
    ).materialize()  # DAG break: Union under backpressure trickles (see cdc/dedupe)

    def verdict_partition(df: pd.DataFrame) -> pd.DataFrame:
        u = df[~df["is_rule"]]
        r = df[df["is_rule"]]
        n = len(u)
        if n == 0:
            return pd.DataFrame(
                {
                    url_id_col: pd.Series(dtype=np.int64),
                    host_col: pd.Series(dtype=str),
                    path_col: pd.Series(dtype=str),
                    "allowed": pd.Series(dtype=bool),
                    "matched_pl": pd.Series(dtype=np.int64),
                }
            )
        uu = u.reset_index(drop=True).reset_index()  # index = local url pos
        m = uu[["index", "host", "path"]].merge(
            r[["host", "allow", "prefix"]], on="host", how="inner"
        )
        if len(m):
            url_pos = m["index"].to_numpy().astype(np.int64)
            path = m["path"].to_numpy().astype(str)
            prefix = m["prefix"].to_numpy().astype(str)
            matched = np.char.startswith(path, prefix)
            allowed, best_pl = _winner_verdict(
                url_pos,
                n,
                np.char.str_len(prefix).astype(np.int64),
                m["allow"].to_numpy().astype(bool),
                matched,
            )
        else:
            allowed = np.ones(n, dtype=bool)
            best_pl = np.full(n, -1, dtype=np.int64)
        return pd.DataFrame(
            {
                url_id_col: uu["url_id"].to_numpy().astype(np.int64),
                host_col: uu["host"].to_numpy().astype(str),
                path_col: uu["path"].to_numpy().astype(str),
                "allowed": allowed,
                "matched_pl": best_pl,
            }
        )

    return keyed_partition_map(
        both, ["host"], verdict_partition,
        num_partitions=num_partitions, out_schema=out_schema,
    )


# ------------------------------------------------------ gate corpora

def make_robots_table(n_hosts: int, seed: int = 43) -> pa.Table:
    """Deterministic robots corpus: hosts h{i}.example, one policy
    class per i % 10 residue (class 0 hosts have NO robots row). Every
    parser feature is exercised: nested allow-in-disallow, exact-agent
    vs '*' group selection, multi-User-agent group headers, disallow
    all, EMPTY Disallow (allow-all), comments + mixed case + CRLF,
    equal-length allow/disallow tie, other-agent-only files, and two
    merged groups for the same agent."""
    hosts, texts = [], []
    for i in range(n_hosts):
        k = i % 10
        if k == 0:
            continue  # no robots.txt at all
        h = f"h{i}.example"
        if k == 1:
            t = "User-agent: *\nDisallow: /private/\nAllow: /private/pub/\n"
        elif k == 2:
            t = (
                "User-agent: graftbot\nDisallow: /no-graft/\nAllow: /\n\n"
                "User-agent: *\nDisallow: /\n"
            )
        elif k == 3:
            t = "User-agent: foo\nUser-agent: graftbot\nDisallow: /shared/\n"
        elif k == 4:
            t = "User-agent: *\nDisallow: /\n"
        elif k == 5:
            t = "User-agent: *\nDisallow:\n"
        elif k == 6:
            t = (
                "# site policy\r\nUSER-AGENT: *  \r\nDisALLOW: /tmp/ # temp files\r\n"
                "Allow: /tmp/keep/\r\n"
            )
        elif k == 7:
            t = "User-agent: *\nDisallow: /t/\nAllow: /t/\n"
        elif k == 8:
            t = "User-agent: otherbot\nDisallow: /\n"
        else:
            t = (
                "User-agent: graftbot\nDisallow: /a/\n\n"
                "Disallow: /orphan/\n\n"  # ignored: not after a UA line? (it is
                # inside no group start — it FOLLOWS the blank line but groups
                # end only at the next UA header, so it belongs to graftbot)
                "User-agent: GraftBot\nAllow: /a/b/\n"
            )
        hosts.append(h)
        texts.append(t)
    return pa.table(
        {"host": pa.array(hosts, pa.string()), "robots_txt": pa.array(texts, pa.string())}
    )


_PATH_POOL = [
    "/",
    "/index.html",
    "/private/x",
    "/private/pub/y",
    "/no-graft/a",
    "/shared/b",
    "/t/z",
    "/tmp/f",
    "/tmp/keep/g",
    "/a/q",
    "/a/b/r",
    "/orphan/s",
    "/other/c",
]


def make_crawl_urls_table(n: int, n_hosts: int, seed: int = 47) -> pa.Table:
    """Deterministic candidate-URL corpus over the robots hosts (every
    residue class including no-robots hosts), paths cycling through
    the pool that hits every rule boundary."""
    ids = np.arange(n, dtype=np.int64)
    hosts = [f"h{int(i) % n_hosts}.example" for i in ids]
    paths = [_PATH_POOL[(int(i) * 7 + int(i) // n_hosts) % len(_PATH_POOL)] for i in ids]
    return pa.table(
        {
            "url_id": pa.array(ids),
            "host": pa.array(hosts, pa.string()),
            "path": pa.array(paths, pa.string()),
        }
    )


def robots_corpus_parquet(n_hosts: int, n_urls: int) -> tuple[str, str]:
    """Persist (once, cached) the robots + urls gate corpora so BOTH
    engines read identical bytes (the urls_corpus_parquet idiom)."""
    import os

    import pyarrow.parquet as pq

    root = f"/tmp/geokit_robots/h{n_hosts}_u{n_urls}"
    rpath = os.path.join(root, "robots.parquet")
    upath = os.path.join(root, "urls.parquet")
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return rpath, upath
    os.makedirs(root, exist_ok=True)
    pq.write_table(make_robots_table(n_hosts), rpath)
    pq.write_table(make_crawl_urls_table(n_urls, n_hosts), upath)
    open(done, "w").write("ok")
    return rpath, upath
