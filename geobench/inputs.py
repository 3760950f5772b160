"""Seeded inputs and their reference answers, computed without Ray.

Inputs are generated in a child process (``python -m geobench.inputs``)
so the driver's peak RSS does not depend on whether they were cached,
and kept under ``<work>/inputs/<kind>-s<seed>-n<rows>/`` until the
checkout is removed. A ``_DONE`` file marks a complete directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAGE_COLS = ["url", "warc_ts", "text", "lang"]

# Convert menus: input space and whether the output is geographic.
GEO_IN_MENUS = (2, 4, 8)
GEO_OUT_MENUS = (1, 3, 7)


def ensure(kind: str, seed: int, rows: int, work_dir: str) -> str:
    path = os.path.join(work_dir, "inputs", f"{kind}-s{seed}-n{rows}")
    if not os.path.exists(os.path.join(path, "_DONE")):
        env = dict(os.environ, PYTHONPATH=ROOT)
        subprocess.run(
            [sys.executable, "-m", "geobench.inputs", kind, str(seed), str(rows), path],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
    return path


def _write_done(path: str, meta: dict) -> None:
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f)
    with open(os.path.join(path, "_DONE"), "w") as f:
        f.write("ok")


def meta(path: str) -> dict:
    with open(os.path.join(path, "meta.json")) as f:
        return json.load(f)


# Pages: SHARDS parquet files; each distinct seeded table is written
# COPIES times, which cuts generation time by that factor. The enrich layers keep
# no state across rows, so a copy costs them as much as a new table.
SHARDS = 8
COPIES = 4


def make_pages(seed: int, rows: int, path: str) -> None:
    from engine.pages import make_pages_table
    from engine.stages import prepare_stage

    per = rows // SHARDS
    cells, n_coord = [], 0
    for k in range(SHARDS // COPIES):
        t = make_pages_table(per, seed=seed * 1000 + k, id_offset=k * per)
        for c in range(COPIES):
            pq.write_table(t.select(PAGE_COLS), os.path.join(path, f"part-{k * COPIES + c:04d}.parquet"))
        ref = prepare_stage(t.select(PAGE_COLS))
        cells += [ref["cell"].to_numpy()] * COPIES
        n_coord += COPIES * int(pc.sum(pc.greater_equal(t["_true_layout"], 0)).as_py())
    cell, cnt = np.unique(np.concatenate(cells), return_counts=True)
    np.savez(os.path.join(path, "reference.npz"), cell=cell, cnt=cnt)
    _write_done(path, {"rows": per * SHARDS, "n_coord": n_coord})


def convert_argv(menu: int, path: str) -> list[str]:
    return ["convert", "-t", str(menu), path, "--height-mode", "geoid"]


def make_convert(seed: int, rows: int, path: str) -> None:
    """One point file per menu 1-10, in that menu's input space, and the
    expected output of each. The generator's true points (ETRS89
    fi, la, h) are carried into each input space by the independent
    reference in convert_ref; the CLI's output must match that
    reference applied to the printed input and, for menus 1 and 3
    (geographic output of a Helmert or projection round trip), the
    true points themselves."""
    from engine.pages import generate_points
    from geobench import convert_ref as R

    rng = np.random.default_rng(seed)
    expected = {}
    for menu in range(1, 11):
        fi, la = generate_points(rows, rng)
        h = rng.uniform(100.0, 2500.0, rows)
        if menu in GEO_IN_MENUS:
            a, b, fmt = fi, la, "%.10f"
        elif menu in (1, 6, 10):
            (a, b), fmt = R.each(R.geo_to_tm, fi, la), "%.4f"
        else:
            (a, b, h), fmt = R.each(R.geo_to_gk, fi, la, h), "%.4f"
        ca, cb = np.char.mod(fmt, a), np.char.mod(fmt, b)
        ch = np.char.mod("%.3f", h)
        labels = np.char.mod("P%07d", np.arange(rows))
        lines = np.char.add(np.char.add(np.char.add(labels, " "), np.char.add(ca, " ")), np.char.add(np.char.add(cb, " "), ch))
        with open(os.path.join(path, f"menu-{menu:02d}.txt"), "w") as f:
            f.write("\n".join(lines.tolist()) + "\n")
        # The CLI parses exactly these strings, so the reference does too.
        av, bv, hv = ca.astype(np.float64), cb.astype(np.float64), ch.astype(np.float64)
        for k, v in zip("abc", R.expected(menu, av, bv, hv)):
            expected[f"m{menu}{k}"] = v
        expected[f"m{menu}fi"], expected[f"m{menu}la"] = fi, la
    np.savez(os.path.join(path, "expected.npz"), **expected)
    _write_done(path, {"rows": rows})


def make_joins(seed: int, rows: int, path: str) -> None:
    """Probe table (``rows`` page visits) and build table (rows // 2
    known urls). Domains are Zipf-skewed, and probe urls repeat
    Zipf-hot build urls, so buckets and keys are skewed."""
    rng = np.random.default_rng(seed)
    n_build = rows // 2
    n_dom = 2000
    dom_of_build = (rng.zipf(1.3, n_build) - 1) % n_dom
    build_url = np.char.add(
        np.char.add(np.char.mod("https://d%04d.example/", dom_of_build), "p"),
        np.char.mod("%08d", rng.permutation(n_build * 4)[:n_build]),
    )
    title = np.char.add("title ", np.char.mod("%x", rng.integers(0, 2**40, n_build)))
    hit = rng.random(rows) < 0.6
    pick = (rng.zipf(1.2, rows) - 1) % n_build
    miss_dom = (rng.zipf(1.3, rows) - 1) % n_dom
    miss_url = np.char.add(
        np.char.mod("https://d%04d.example/q", miss_dom), np.char.mod("%08d", rng.integers(0, 10**8, rows))
    )
    url = np.where(hit, build_url[pick], miss_url)
    domain = np.where(hit, dom_of_build[pick], miss_dom)
    ref = np.char.mod("ref-%d", rng.integers(0, 10 ** rng.integers(2, 12, rows)))
    probe = pa.table({
        "pid": pa.array(np.arange(rows, dtype=np.int64)),
        "url": pa.array(url, pa.string()),
        "domain": pa.array(np.char.mod("d%04d", domain), pa.string()),
        "ref": pa.array(ref, pa.string()),
    })
    build = pa.table({"url": pa.array(build_url, pa.string()), "title": pa.array(title, pa.string())})
    pq.write_table(probe, os.path.join(path, "probe.parquet"))
    pq.write_table(build, os.path.join(path, "build.parquet"))

    joined = probe.join(build, "url", join_type="inner").sort_by("pid")
    flags = pc.is_in(probe["url"], value_set=build["url"])
    stats = domain_stats(probe.to_pandas())
    np.savez(
        os.path.join(path, "expected.npz"),
        join_pid=joined["pid"].to_numpy(),
        join_title=np.asarray(joined["title"].to_pylist(), dtype=object).astype(str),
        flags=flags.to_numpy(zero_copy_only=False),
        dom=stats["domain"].to_numpy().astype(str),
        dom_n=stats["n"].to_numpy(),
        dom_bytes=stats["ref_bytes"].to_numpy(),
    )
    _write_done(path, {"rows": rows, "build_rows": n_build, "join_rows": joined.num_rows})


def domain_stats(df):
    """The keyed_partition_map function of the join workload: visits and
    payload bytes per domain, sorted by domain."""
    g = df.assign(rl=df["ref"].str.len()).groupby("domain", sort=True)
    return g.agg(n=("rl", "size"), ref_bytes=("rl", "sum")).reset_index()


MAKERS = {"pages": make_pages, "convert": make_convert, "joins": make_joins}


if __name__ == "__main__":
    kind, seed, rows, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    os.makedirs(out, exist_ok=True)
    MAKERS[kind](seed, rows, out)
