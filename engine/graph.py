"""Iterative graph analytics on Ray Data (X33): integer-exact
PageRank over a link graph.

Upstream parity: GeoCoordinateConverter has no graph operators — this
family is brief-mandated LLM-pipeline infrastructure (host/page
ranking over a web link graph is a standard crawl-quality signal that
feeds training-data curation).

Design notes (100 TB / multi-node):

* **All arithmetic is int64** — contributions are ``rank //
  out_degree`` (floor division) and the damping step is ``(85 *
  sum) // 100``, so sums are associative/commutative and the result
  is bit-identical under ANY partitioning or batch shape (the
  float-PageRank order-dependence problem never arises), and the
  whole fixed-point loop is SQL-expressible for the oracle gate.
  Overflow bound: a node's incoming contribution sum times 85 must
  stay under 2^63 — with scale=10^12 that allows in-degrees up to
  ~10^5 (the hash-derived graph's in-degree is ~Poisson(out_degree);
  real web graphs need per-key salting of the dst-sum first, which
  ``grouped_count_sums(salts=...)`` already provides).

* **Per-iteration data movement**: PageRank never materializes a
  dense rank vector: ranks live as a Dataset and each iteration is
  one sentinel-union co-partition by src (a fused rank->edge attach,
  see inline note) plus one combiner dst-sum — both sides shuffle
  only (id, int64, int64) rows, ~24 B/row.  A production deployment
  iterating many rounds would pin the edge partitions in actor state
  to avoid re-partitioning edges each round; at the 5-iteration depth
  used here the re-partitioned attach is the simpler, still
  shuffle-bounded shape.

* **Per-iteration ``materialize()`` of the RANK table only** (N
  rows of 16 B — node-scale, never corpus/edge-scale) — a
  deliberate DAG break: Ray 2.49 wedges/serializes lazily-chained
  shuffle stages (see shuffle.py notes), and iterative fixed points
  are exactly that shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

# LCG-style odd multipliers/increments (< 2^31 so src*A + B stays
# far under 2^63 for any node count < 2^31); one (A, B) pair per
# out-edge arm. Shared verbatim with the SQL mirrors — change
# together. Arms 5-6 are RING arms (i -> i+1, i -> i+2): pure affine
# maps never close 3-cycles (verified: zero triangles at every test
# n), so the triangle operator's graph adds them to guarantee a live
# clustered structure (every consecutive id triple closes). PageRank
# keeps out_degree=4 (hash arms only).
EDGE_A = (1103515245, 1566083941, 747796405, 1812433253, 1, 1)
EDGE_B = (12345, 362437, 69069, 987654321, 1, 2)


def derive_link_edges(
    nodes: Dataset,
    num_nodes: int,
    id_col: str = "id",
    out_degree: int = 4,
) -> Dataset:
    """Deterministic k-regular-out multigraph over dense node ids
    0..num_nodes-1: ``dst_j = (src * A_j + B_j) % num_nodes`` for
    each arm j. Self-loops and parallel edges are kept (multigraph
    semantics — the SQL mirror's UNION ALL matches). Streams: one
    map_batches, out_degree rows out per node, no shuffle."""
    if out_degree > len(EDGE_A):
        raise ValueError(f"out_degree must be <= {len(EDGE_A)}")
    a = np.array(EDGE_A[:out_degree], np.int64)
    b = np.array(EDGE_B[:out_degree], np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        src = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = np.repeat(src, out_degree)
        dst = (src[:, None] * a[None, :] + b[None, :]) % np.int64(num_nodes)
        return pa.table({"src": srcs, "dst": dst.reshape(-1)})

    return nodes.map_batches(fn, batch_format="pyarrow")


def pagerank(
    nodes: Dataset,
    edges: Dataset,
    iters: int = 5,
    out_degree: int | None = 4,
    scale: int = 10**12,
    damp_pct: int = 85,
    num_partitions: int = 16,
    seed_mod: int | None = None,
    init_ranks: Dataset | None = None,
) -> Dataset:
    """Integer-exact PageRank: r0 = scale; r_{t+1}(v) = teleport(v) +
    (damp_pct * Σ_{u→v} (r_t(u) // deg(u))) // 100.

    ``out_degree``: constant graph degree (the derive_link_edges
    contract — contribution is a plain floor division). Pass ``None``
    for VARIABLE-degree graphs: deg(u) is counted from the edge
    multiset itself inside the src co-partition (every edge of u is
    co-located there, so the count is exact with no extra shuffle);
    nodes with out-degree 0 simply contribute nothing — the dangling
    mass is DROPPED, the deterministic SQL-mirrorable convention.

    ``seed_mod``: personalized PageRank — teleport mass goes ONLY to
    seed nodes (id % seed_mod == 0) instead of every node; r0 is
    scale at seeds, 0 elsewhere. None = uniform (classic).

    ``init_ranks``: warm-start from a persisted rank table
    (Dataset[id, pr] — e.g. a prior run's parquet output): iteration
    resumes from that state instead of the uniform/seed r0, so a
    crawl-refresh recomputes in few iterations from yesterday's
    ranks (the incremental-dedup steady-state pattern for graphs;
    running k more iterations on a saved state is bit-identical to
    having run them in one job — pytest-checked).

    Returns Dataset[id: int64, pr: int64]. Bit-identical across
    partitionings and batch shapes (pytest-checked).
    """
    from engine.shuffle import grouped_count_sums, keyed_partition_map

    import pandas as pd

    d = np.int64(out_degree) if out_degree is not None else None
    teleport = ((100 - damp_pct) * scale) // 100

    def init(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if seed_mod is None:
            r0 = np.full(len(ids), scale, np.int64)
        else:
            r0 = np.where(ids % seed_mod == 0, scale, 0).astype(np.int64)
        return pa.table({"src": ids, "r": r0})

    if init_ranks is not None:
        ranks = init_ranks.map_batches(
            lambda b: b.rename_columns(["src", "r"]), batch_format="pyarrow"
        )
    else:
        ranks = nodes.map_batches(init, batch_format="pyarrow")

    # The per-iteration rank->edge attachment is ONE sentinel-union
    # co-partition by src (rank rows carry dst = -1, impossible for a
    # real edge): per partition a searchsorted lookup attaches r to
    # every edge and emits the contribution rows directly — fused, no
    # acero join, no all-null padding columns, and no Union feeding a
    # sort unmaterialized (the generic hash_join trickled under
    # backpressure at soak scale — see triangle_counts' closure note).
    def tag_edges(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {"src": b["src"], "dst": b["dst"], "r": np.full(n, -1, np.int64)}
        )

    def tag_ranks(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {"src": b["src"], "dst": np.full(n, -1, np.int64), "r": b["r"]}
        )

    contrib_schema = pa.schema([("dst", pa.int64()), ("c", pa.int64())])

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"dst": pd.Series(dtype=np.int64), "c": pd.Series(dtype=np.int64)}
            )
        is_rank = df["dst"].to_numpy() == -1
        r_src = df["src"].to_numpy()[is_rank]
        r_val = df["r"].to_numpy()[is_rank]
        order = np.argsort(r_src, kind="stable")
        r_src, r_val = r_src[order], r_val[order]
        e_src = df["src"].to_numpy()[~is_rank]
        e_dst = df["dst"].to_numpy()[~is_rank]
        pos = np.searchsorted(r_src, e_src)
        if d is not None:
            c = r_val[pos] // d
        else:
            # variable degree: every edge of a src is in THIS
            # partition, so its multiset count here IS deg(u).
            order_e = np.argsort(e_src, kind="stable")
            inv = np.empty_like(order_e)
            inv[order_e] = np.arange(len(order_e))
            es = e_src[order_e]
            change = np.concatenate([[True], es[1:] != es[:-1]])
            seg = np.cumsum(change) - 1
            deg = np.bincount(seg)[seg][inv]
            c = r_val[pos] // deg
        # zero rows keyed by each RANK row's node guarantee EVERY node
        # (in-degree 0 included) gets a dst-sum group.
        return pd.DataFrame(
            {
                "dst": np.concatenate([e_dst, r_src]),
                "c": np.concatenate([c, np.zeros(len(r_src), np.int64)]),
            }
        )

    def renorm(b: pa.Table) -> pa.Table:
        s = b["sum_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        dstv = b["dst"].to_numpy(zero_copy_only=False)
        if seed_mod is None:
            r = teleport + (damp_pct * s) // 100
        else:
            tele = np.where(dstv % seed_mod == 0, teleport, 0).astype(np.int64)
            r = tele + (damp_pct * s) // 100
        return pa.table({"src": dstv, "r": r})

    edges_t = edges.map_batches(tag_edges, batch_format="pyarrow")
    for _ in range(iters):
        both = edges_t.union(
            ranks.map_batches(tag_ranks, batch_format="pyarrow")
        ).materialize()  # Union -> sort guard (bytes the sort holds anyway)
        contrib = keyed_partition_map(
            both, ["src"], attach, num_partitions, out_schema=contrib_schema
        )
        sums = grouped_count_sums(
            contrib, "dst", sum_cols=("c",), num_partitions=num_partitions
        )
        # DAG break on the NODE-scale table only (see module notes).
        ranks = sums.map_batches(renorm, batch_format="pyarrow").materialize()

    return ranks.map_batches(
        lambda b: b.rename_columns(["id", "pr"]), batch_format="pyarrow"
    )


def triangle_counts(
    nodes: Dataset,
    edges: Dataset,
    num_partitions: int = 16,
) -> Dataset:
    """Exact per-node triangle counts on the UNDIRECTED SIMPLE graph
    underlying an edge Dataset[src, dst] (self-loops dropped,
    parallel/reverse duplicates collapsed) — the standard graph-motif
    statistic (local clustering numerator).

    Distributed shape (node-iterator with total vertex order — the
    MapReduce triangle-counting classic):
      1. canonicalize + distinct: (lo, hi) = (min, max), one
         co-partition by the pair, per-partition drop_duplicates;
      2. wedges: co-group by lo; per lo-run all (hi_i < hi_j) pairs
         -> wedge rows (b, c, center a). Cost Σ deg(v)²/2 — bounded
         by the constant-degree derivation here; real web graphs
         split high-degree vertices first (the documented skew knob);
      3. closure: a sentinel-union co-partition semi-join of wedges
         against the edge set on the packed key b·2³¹ + c (ids < 2³¹
         by the derive_link_edges contract) — a surviving wedge IS
         the triangle (a, b, c), found exactly once since a < b < c;
      4. counts: each triangle credits its three corners; combiner
         dst-sum + zero rows from the node table (the pagerank
         pattern) so every node reports (0 included).

    Returns Dataset[id: int64, n_tri: int64], bit-identical under any
    partitioning (integer counts, pytest-checked)."""
    from engine.shuffle import grouped_count_sums, keyed_partition_map

    import pandas as pd

    PACK = np.int64(1) << np.int64(31)

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        m = s != d
        lo = np.minimum(s[m], d[m])
        hi = np.maximum(s[m], d[m])
        return pa.table({"lo": lo, "hi": hi})

    eu_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])
    eu = keyed_partition_map(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["lo", "hi"],
        lambda df: df.drop_duplicates(["lo", "hi"]),
        num_partitions=num_partitions,
        out_schema=eu_schema,
    ).materialize()  # consumed twice (wedges + closure): DAG break

    wedge_schema = pa.schema([("bc", pa.int64()), ("a", pa.int64())])

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"bc": pd.Series(dtype=np.int64), "a": pd.Series(dtype=np.int64)})
        # One C-speed self-merge per partition (a per-run Python loop
        # with np.triu was vertex-scale — 1M iterations at soak size,
        # measured 126 s wall; the merge is pure hash-join work and
        # its output is exactly the wedge set).
        m = df.merge(df, on="lo", suffixes=("_x", "_y"))
        m = m[m["hi_x"].to_numpy() < m["hi_y"].to_numpy()]
        return pd.DataFrame(
            {
                "bc": m["hi_x"].to_numpy() * PACK + m["hi_y"].to_numpy(),
                "a": m["lo"].to_numpy().astype(np.int64),
            }
        )

    wedge_ds = keyed_partition_map(
        eu, ["lo"], wedges, num_partitions=num_partitions, out_schema=wedge_schema
    )

    def pack_edges(b: pa.Table) -> pa.Table:
        lo = b["lo"].to_numpy(zero_copy_only=False)
        hi = b["hi"].to_numpy(zero_copy_only=False)
        # Sentinel a=-1 marks an EDGE row (node ids are >= 0): the
        # closure is a semi-join of wedges against the edge set, run
        # as ONE sentinel-union co-partition by bc (the dedup-module
        # shape) — the generic hash_join's Union feeding its sort
        # trickled under backpressure at soak scale (19M wedges:
        # >100 s; this shape closes in seconds) and its padding
        # columns double the shuffle width for no benefit here.
        return pa.table({"bc": lo * PACK + hi, "a": np.full(len(lo), -1, np.int64)})

    both = wedge_ds.union(
        eu.map_batches(pack_edges, batch_format="pyarrow")
    ).materialize()  # Union -> sort wedge guard (bytes the sort holds anyway)

    def close(df: pd.DataFrame) -> pd.DataFrame:
        bc = df["bc"].to_numpy()
        a = df["a"].to_numpy()
        is_edge = a == -1
        marks = np.sort(bc[is_edge])
        bcw = bc[~is_edge]
        aw = a[~is_edge]
        if len(marks) == 0 or len(bcw) == 0:
            return pd.DataFrame(
                {"bc": pd.Series(dtype=np.int64), "a": pd.Series(dtype=np.int64)}
            )
        pos = np.clip(np.searchsorted(marks, bcw), 0, len(marks) - 1)
        hit = marks[pos] == bcw
        return pd.DataFrame({"bc": bcw[hit], "a": aw[hit]})

    closed = keyed_partition_map(
        both,
        ["bc"],
        close,
        num_partitions=num_partitions,
        out_schema=wedge_schema,
    )

    def corners(b: pa.Table) -> pa.Table:
        bc = b["bc"].to_numpy(zero_copy_only=False)
        a = b["a"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "v": np.concatenate([a, bc // PACK, bc % PACK]),
                "one": np.concatenate([np.ones(3 * len(a), np.int64)]),
            }
        )

    def zero_rows(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"v": ids, "one": np.zeros(len(ids), np.int64)})

    stream = (
        closed.map_batches(corners, batch_format="pyarrow")
        .union(nodes.map_batches(zero_rows, batch_format="pyarrow"))
        .materialize()  # Union -> sort wedge guard (node/triangle-scale)
    )
    agg = grouped_count_sums(
        stream, key="v", sum_cols=("one",), num_partitions=num_partitions
    )
    return agg.map_batches(
        lambda b: b.select(["v", "sum_one"]).rename_columns(["id", "n_tri"]),
        batch_format="pyarrow",
    )


def component_labels(nodes: Dataset, edges: Dataset) -> Dataset:
    """Connected components of the undirected graph under an edge
    Dataset[src, dst] (self-loops ignored), labels = min reachable
    node id — a thin graph-API wrapper over the dedup module's
    gate-proven ``connected_components_distributed`` (single-task
    pointer-jumping union-find under ~5M edges, round-based min-label
    propagation beyond; engine/dedupe.py).

    Isolated nodes get their own id as label via a shuffle-light
    grouped MIN over the union of CC labels and per-node self rows
    (CC labels are min-reachable-including-self, so the min is always
    the CC label when one exists).

    Returns Dataset[id: int64, group_id: int64] for EVERY node."""
    from engine.dedupe import connected_components_distributed
    from engine.shuffle import grouped_count_sums

    def to_pairs(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        m = s != d
        return pa.table({"id_a": s[m], "id_b": d[m]})

    cc = connected_components_distributed(
        edges.map_batches(to_pairs, batch_format="pyarrow")
    )

    def self_rows(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": ids, "group_id": ids})

    stream = cc.union(
        nodes.map_batches(self_rows, batch_format="pyarrow")
    ).materialize()  # Union -> sort wedge guard (node-scale)
    agg = grouped_count_sums(
        stream, key="doc_id", min_cols=("group_id",), num_partitions=8
    )
    return agg.map_batches(
        lambda b: b.select(["doc_id", "min_group_id"]).rename_columns(
            ["id", "group_id"]
        ),
        batch_format="pyarrow",
    )
