"""Merging t-digest quantile sketch (SURVEY.md §2.9 X6).

The mergeable companion to engine.analytics.grouped_quantiles: exact
grouped quantiles need every value of a group on one worker; this
sketch needs O(delta) centroids per group no matter how many rows —
the shuffle moves (key, means[], weights[]) rows of ~2*delta doubles,
and merging two digests is associative, so the per-batch partial /
keyed-merge decomposition all aggregates here use applies unchanged.

Implementation is the published MergingDigest formulation with the
k1 (arcsine) scale function: sorted values are treated as unit-weight
centroids, each assigned to cluster floor(k(q)) where
k(q) = delta/(2*pi) * (arcsin(2q-1) + pi/2) and q is the centroid's
mid-cumulative rank; per-cluster weighted means via np.add.reduceat —
one vectorized pass, no Python loop over rows or centroids. The k1
scale concentrates resolution at the tails (error ~ q(1-q)), which is
what P99-style monitoring needs.

Determinism: given the same multiset of values in the same block
order the digest is identical (sorting + floor arithmetic only);
estimates are reproducible across processes.

Driver-gate status: approximate by design (like ann_ivf / the HLL
sketch) so not in the oracle window; rank-error is pytest-bounded
against exact order statistics, and merge associativity is tested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

DELTA_DEFAULT = 300


def _compress(
    means: np.ndarray, weights: np.ndarray, delta: int
) -> tuple[np.ndarray, np.ndarray]:
    """One merging-compression pass over centroids SORTED by mean."""
    if len(means) == 0:
        return means, weights
    W = weights.sum()
    cum = np.cumsum(weights) - weights / 2.0
    q = cum / W
    k = (delta / (2.0 * np.pi)) * (np.arcsin(2.0 * q - 1.0) + np.pi / 2.0)
    cid = np.floor(k).astype(np.int64)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(cid)) + 1])
    wsum = np.add.reduceat(weights, starts)
    msum = np.add.reduceat(means * weights, starts)
    return msum / wsum, wsum


def build(values: np.ndarray, delta: int = DELTA_DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Digest of a raw value array: sort, then compress unit weights."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return _compress(v, np.ones(len(v), dtype=np.float64), delta)


def merge(
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    delta: int = DELTA_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    means = np.concatenate([a[0], b[0]])
    weights = np.concatenate([a[1], b[1]])
    order = np.argsort(means, kind="stable")
    return _compress(means[order], weights[order], delta)


def quantile(digest: tuple[np.ndarray, np.ndarray], q) -> np.ndarray:
    """Estimate value(s) at quantile(s) q by interpolating centroid
    means at mid-cumulative weights (clamped at the extreme means)."""
    means, weights = digest
    cum = np.cumsum(weights) - weights / 2.0
    return np.interp(np.asarray(q, dtype=np.float64) * weights.sum(), cum, means)


def grouped_quantile_sketch(
    ds: Dataset,
    key: str,
    value_col: str,
    quantiles=(0.5, 0.9, 0.99),
    delta: int = DELTA_DEFAULT,
    num_partitions: int = 16,
) -> Dataset:
    """Approximate grouped quantiles at any group size: per-batch
    per-group digests (O(delta) doubles each), ONE keyed-partition
    shuffle of digest rows, associative merge per group, estimator
    applied once per output row.

    Columns: key, q<pct>_<value_col> (float64 each)."""
    import pandas as pd

    from engine.shuffle import keyed_partition_map

    qcols = [f"q{int(q * 100)}_{value_col}" for q in quantiles]

    def partial(b: pa.Table) -> pa.Table:
        kc = b[key]
        if isinstance(kc, pa.ChunkedArray):
            kc = kc.combine_chunks()
        enc = kc.dictionary_encode()
        gidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(gidx, kind="stable")
        gidx_s, vals_s = gidx[order], vals[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(gidx_s)) + 1])
        keys_out, means_out, weights_out = [], [], []
        dict_vals = enc.dictionary.to_pylist()
        bounds = np.append(starts, len(gidx_s))
        for i, s in enumerate(starts):
            e = bounds[i + 1]
            m, w = build(vals_s[s:e], delta)
            keys_out.append(dict_vals[gidx_s[s]])
            means_out.append(m)
            weights_out.append(w)
        return pa.table(
            {
                key: pa.array(keys_out, type=enc.dictionary.type),
                "means": pa.array([m.tolist() for m in means_out], type=pa.list_(pa.float64())),
                "weights": pa.array([w.tolist() for w in weights_out], type=pa.list_(pa.float64())),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        rows = []
        for k, g in df.groupby(key, sort=False):
            d = (np.empty(0), np.empty(0))
            for m, w in zip(g["means"], g["weights"]):
                d = merge(d, (np.asarray(m, dtype=np.float64), np.asarray(w, dtype=np.float64)), delta)
            est = quantile(d, quantiles)
            rows.append((k, *est.tolist()))
        return pd.DataFrame(rows, columns=[key, *qcols])

    s = partials.schema()
    kt = dict(zip(s.names, s.types))[key]
    schema = pa.schema([(key, kt)] + [(c, pa.float64()) for c in qcols])
    return keyed_partition_map(
        partials, [key], merge_partition, num_partitions, out_schema=schema
    )


def q_quantile_sketch_orders(sf_dir: str) -> Dataset:
    """Approximate p50/p90/p99 of o_totalprice per o_orderpriority —
    the sketch-path mirror of the exact grouped_quantiles gate query
    (pytest bounds the rank error between the two)."""
    from engine.queries import _read

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return grouped_quantile_sketch(ds, "o_orderpriority", "o_totalprice")
