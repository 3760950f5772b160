"""Iterative graph analytics (engine/graph.py): integer PageRank.

Three independent checks: a scalar numpy fixed-point oracle (no Ray,
no SQL), bit-identity across repartitionings, and the driver-gate
DuckDB mirror.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _brute_pagerank(n, iters=5, out_degree=4, scale=10**12, damp_pct=85):
    from engine.graph import EDGE_A, EDGE_B

    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    a = np.array(EDGE_A[:out_degree], np.int64)
    b = np.array(EDGE_B[:out_degree], np.int64)
    dst = (
        (np.arange(n, dtype=np.int64)[:, None] * a[None, :] + b[None, :]) % n
    ).reshape(-1)
    r = np.full(n, scale, np.int64)
    teleport = ((100 - damp_pct) * scale) // 100
    for _ in range(iters):
        s = np.zeros(n, np.int64)
        np.add.at(s, dst, r[src] // out_degree)
        r = teleport + (damp_pct * s) // 100
    return r


def test_pagerank_matches_scalar_oracle(ray_session):
    import ray.data as rd

    from engine.graph import derive_link_edges, pagerank

    for n in (211, 300):
        nodes = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(7)
        edges = derive_link_edges(nodes, n)
        got = (
            pagerank(nodes, edges, num_partitions=4)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        expect = _brute_pagerank(n)
        assert got.pr.dtype == np.int64
        assert (got.id.to_numpy() == np.arange(n)).all()
        assert (got.pr.to_numpy() == expect).all()
        if n == 211:
            # prime modulus: every LCG arm is a bijection, the graph
            # is in-regular, and the uniform vector is the EXACT fixed
            # point — a strong closed-form check of the update rule.
            assert got.pr.nunique() == 1
            assert int(got.pr.iloc[0]) == 10**12
        else:
            # composite modulus (gcd(A_j, n) > 1): skewed in-degrees,
            # ranks must differentiate.
            assert got.pr.nunique() > 1


def test_pagerank_partitionings_bit_identical(ray_session):
    import ray.data as rd

    from engine.graph import derive_link_edges, pagerank

    n = 500
    outs = []
    for parts, num_partitions in [(3, 4), (11, 4), (5, 7)]:
        nodes = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(parts)
        edges = derive_link_edges(nodes, n)
        outs.append(
            pagerank(nodes, edges, num_partitions=num_partitions)
            .to_pandas()
            .sort_values("id")
            .pr.to_numpy()
        )
    assert (outs[0] == outs[1]).all()
    assert (outs[0] == outs[2]).all()


def test_pagerank_docs_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["pagerank_docs"]
    ray_df = fn(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 0
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


def _brute_triangles(n, out_degree=6):
    """Set-based scalar oracle: undirected simple graph, per-node
    triangle membership counts."""
    from engine.graph import EDGE_A, EDGE_B

    adj = [set() for _ in range(n)]
    for j in range(out_degree):
        for i in range(n):
            d = (i * EDGE_A[j] + EDGE_B[j]) % n
            if d != i:
                adj[i].add(d)
                adj[d].add(i)
    counts = np.zeros(n, np.int64)
    for a in range(n):
        nbrs = sorted(v for v in adj[a] if v > a)
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                b, c = nbrs[x], nbrs[y]
                if c in adj[b]:
                    counts[a] += 1
                    counts[b] += 1
                    counts[c] += 1
    return counts


def test_triangle_counts_matches_scalar_oracle(ray_session):
    import ray.data as rd

    from engine.graph import derive_link_edges, triangle_counts

    for n, parts in [(120, 5), (301, 9)]:
        nodes = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(parts)
        edges = derive_link_edges(nodes, n, out_degree=6)
        got = (
            triangle_counts(nodes, edges, num_partitions=4)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        expect = _brute_triangles(n)
        assert len(got) == n
        assert (got.id.to_numpy() == np.arange(n)).all()
        assert (got.n_tri.to_numpy() == expect).all()
        assert got.n_tri.max() > 0  # ring arms guarantee live triangles


def test_triangle_counts_docs_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["triangle_counts_docs"]
    ray_df = fn(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 0
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values("doc_id").reset_index(drop=True)
    b = sql_df[cols].sort_values("doc_id").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


def test_pagerank_warm_start_resumes_bit_identically(ray_session, tmp_path):
    """Persist ranks after 3 iterations, reload from parquet, run 2
    more: must equal 5 straight iterations (the crawl-refresh
    steady-state contract)."""
    import ray.data as rd

    from engine.graph import derive_link_edges, pagerank

    n = 400
    nodes = rd.from_arrow(pa.table({"id": np.arange(n, dtype=np.int64)})).repartition(5)
    edges = derive_link_edges(nodes, n)
    straight = (
        pagerank(nodes, edges, iters=5, num_partitions=4)
        .to_pandas()
        .sort_values("id")
        .pr.to_numpy()
    )
    first = pagerank(nodes, edges, iters=3, num_partitions=4)
    out = str(tmp_path / "ranks")
    first.write_parquet(out)
    persisted = rd.read_parquet(out)
    resumed = (
        pagerank(
            nodes, edges, iters=2, num_partitions=4, init_ranks=persisted
        )
        .to_pandas()
        .sort_values("id")
        .pr.to_numpy()
    )
    assert (resumed == straight).all()


def test_graph_ops_on_random_multigraphs(ray_session):
    """All three graph operators on seeded RANDOM multigraphs (self
    loops, parallel edges, dangling nodes, skewed variable degree) —
    the derived LCG graphs are structurally special, so this guards
    the general contracts: variable-degree PageRank vs a scalar
    fixed point, triangle counts vs the set oracle, component labels
    vs union-find."""
    import ray.data as rd

    from engine.graph import component_labels, pagerank, triangle_counts

    scale, damp = 10**12, 85
    for seed in (7, 99):
        rng = np.random.default_rng(seed)
        n = 150
        m = 450
        src = rng.integers(0, n, m).astype(np.int64)
        dst = rng.integers(0, n, m).astype(np.int64)
        # plant dangling nodes: strip all out-edges of ids 0..9
        keep = src >= 10
        src, dst = src[keep], dst[keep]
        nodes = rd.from_arrow(
            pa.table({"id": np.arange(n, dtype=np.int64)})
        ).repartition(4)
        edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(3)

        # --- variable-degree PageRank vs scalar fixed point ---
        got = (
            pagerank(nodes, edges, iters=4, out_degree=None, num_partitions=4)
            .to_pandas()
            .sort_values("id")
            .pr.to_numpy()
        )
        r = np.full(n, scale, np.int64)
        teleport = ((100 - damp) * scale) // 100
        deg = np.bincount(src, minlength=n).astype(np.int64)
        safe_deg = np.maximum(deg, 1)
        for _ in range(4):
            s = np.zeros(n, np.int64)
            np.add.at(s, dst, (r // safe_deg)[src])
            r = teleport + (damp * s) // 100
        assert (got == r).all()

        # --- triangles vs set oracle ---
        tri = (
            triangle_counts(nodes, edges, num_partitions=4)
            .to_pandas()
            .sort_values("id")
            .n_tri.to_numpy()
        )
        adj = [set() for _ in range(n)]
        for a, b in zip(src, dst):
            if a != b:
                adj[a].add(int(b))
                adj[b].add(int(a))
        expect = np.zeros(n, np.int64)
        for a in range(n):
            nb = sorted(v for v in adj[a] if v > a)
            for x in range(len(nb)):
                for y in range(x + 1, len(nb)):
                    if nb[y] in adj[nb[x]]:
                        expect[a] += 1
                        expect[nb[x]] += 1
                        expect[nb[y]] += 1
        assert (tri == expect).all()

        # --- components vs union-find ---
        comp = (
            component_labels(nodes, edges)
            .to_pandas()
            .sort_values("id")
            .group_id.to_numpy()
        )
        parent = np.arange(n)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(src, dst):
            if a != b:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        labels = np.array([find(x) for x in range(n)])
        # canonical label = min id in component
        import pandas as pd

        canon = pd.Series(np.arange(n)).groupby(labels).transform("min").to_numpy()
        assert (comp == canon).all()
