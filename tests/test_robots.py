"""robots.txt parse + filter (X51) vs an independent line-by-line
scalar reference implementation, plus edge semantics. Broadcast vs
host-co-partition parity is a site of
tests/test_swap_paths.py::test_lookup_route_parity."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from engine.robots import (
    make_crawl_urls_table,
    make_robots_table,
    parse_robots_batch,
    robots_filter,
)


def ref_rules(text: str, agent: str = "graftbot"):
    """Independent scalar parser: line-by-line state machine (vs the
    engine's vectorized cumsum segmentation)."""
    text = re.sub(r"#[^\n]*", "", text.replace("\r", ""))
    groups = []
    cur_agents: list[str] = []
    cur_rules: list[tuple[bool, str]] = []
    last_was_ua = False
    for line in text.split("\n"):
        m = re.match(r"^\s*([A-Za-z-]+)\s*:\s*(.*?)\s*$", line)
        if not m:
            continue
        d, v = m.group(1).lower(), m.group(2)
        if d == "user-agent":
            if not last_was_ua:
                if cur_agents:
                    groups.append((cur_agents, cur_rules))
                cur_agents, cur_rules = [], []
            cur_agents.append(v.lower())
            last_was_ua = True
        else:
            last_was_ua = False
            if d in ("allow", "disallow") and v != "" and cur_agents:
                cur_rules.append((d == "allow", v))
    if cur_agents:
        groups.append((cur_agents, cur_rules))
    exact = [g for g in groups if agent in g[0]]
    chosen = exact if exact else [g for g in groups if "*" in g[0]]
    return [r for g in chosen for r in g[1]]


def ref_verdict(path: str, rules) -> tuple[bool, int]:
    best = None
    for allow, prefix in rules:
        if path.startswith(prefix):
            pl = len(prefix)
            if best is None or pl > best[0] or (pl == best[0] and allow and not best[1]):
                best = (pl, allow)
    return (True, -1) if best is None else (bool(best[1]), best[0])


def test_parse_robots_matches_scalar_reference():
    rt = make_robots_table(60)
    got = parse_robots_batch(rt).to_pandas()
    by_host = {
        h: sorted(zip(g["allow"], g["prefix"]))
        for h, g in got.groupby("host", sort=False)
    }
    for h, t in zip(rt["host"].to_pylist(), rt["robots_txt"].to_pylist()):
        assert by_host.get(h, []) == sorted(ref_rules(t)), h
    # every host with applicable rules appears; none invented
    exp_hosts = {
        h
        for h, t in zip(rt["host"].to_pylist(), rt["robots_txt"].to_pylist())
        if ref_rules(t)
    }
    assert set(by_host) == exp_hosts


def test_robots_filter_matches_scalar(ray_session):
    rt = make_robots_table(50)
    ut = make_crawl_urls_table(400, 50)
    res = (
        robots_filter(rd.from_arrow(ut).repartition(4), rd.from_arrow(rt))
        .to_pandas()
        .sort_values("url_id")
        .reset_index(drop=True)
    )
    rules = {
        h: ref_rules(t)
        for h, t in zip(rt["host"].to_pylist(), rt["robots_txt"].to_pylist())
    }
    for r in res.itertuples():
        exp_allow, exp_pl = ref_verdict(r.path, rules.get(r.host, []))
        assert (bool(r.allowed), int(r.matched_pl)) == (exp_allow, exp_pl), (
            r.host,
            r.path,
        )
    # the corpus actually denies something and exercises ties
    assert 0 < int((~res["allowed"]).sum()) < len(res)


def test_robots_edge_semantics(ray_session):
    robots = pa.table(
        {
            "host": pa.array(["tie.x", "empty.x", "orphan.x", "case.x", "multi.x"]),
            "robots_txt": pa.array(
                [
                    "User-agent: *\nDisallow: /p/\nAllow: /p/\n",  # tie -> allow
                    "User-agent: *\nDisallow:\n",  # empty value dropped
                    "Disallow: /pre/\nUser-agent: *\nDisallow: /q/\n",  # pre-UA ignored
                    "uSeR-aGeNt: GRAFTBOT\ndIsAlLoW: /c/\n",  # case-insensitive
                    "User-agent: a\nUser-agent: graftbot\nDisallow: /m/\n"
                    "\nUser-agent: *\nDisallow: /\n",  # multi-UA header; exact beats *
                ]
            ),
        }
    )
    urls = pa.table(
        {
            "url_id": pa.array(np.arange(8, dtype=np.int64)),
            "host": pa.array(
                ["tie.x", "empty.x", "orphan.x", "orphan.x", "case.x", "case.x",
                 "multi.x", "multi.x"]
            ),
            "path": pa.array(
                ["/p/a", "/anything", "/pre/b", "/q/c", "/c/d", "/ok", "/m/e", "/free"]
            ),
        }
    )
    res = (
        robots_filter(rd.from_arrow(urls), rd.from_arrow(robots))
        .to_pandas()
        .sort_values("url_id")
        .reset_index(drop=True)
    )
    assert res["allowed"].tolist() == [
        True,   # tie: allow wins
        True,   # empty disallow = nothing disallowed
        True,   # pre-UA rule ignored
        False,  # /q/ disallowed
        False,  # case-insensitive directive + agent
        True,
        False,  # exact-agent group wins; /m/ denied
        True,   # ...and the '*' group's Disallow / does NOT apply
    ]
    assert res["matched_pl"].tolist() == [3, -1, -1, 3, 3, -1, 3, -1]
