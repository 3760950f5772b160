"""Tests for the training-data operator families: dedup (exact,
MinHash-LSH, SimHash, embedding near-dup), ANN search, text analysis,
multimodal plumbing. Brute-force oracles throughout (SURVEY.md §5.2).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from engine import dedupe
from engine.ann import IvfIndex, brute_topk, ivf_topk
from engine.multimodal import (
    DecodeImage,
    frame_sample_stage,
    image_features_stage,
    make_fake_media_table,
    resize_stage,
)
from engine.textops import langid_batch, quality_batch, rolling_fingerprint


def _doc_table(with_dups: bool = True) -> pa.Table:
    rng = np.random.default_rng(31)
    vocab = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(60)]
    if with_dups:
        # Planted near-dups: copy with 2 token edits; and one exact dup.
        base = texts[5].split()
        base[3] = "edited"
        base[17] = "tokens"
        texts.append(" ".join(base))  # near-dup of 5 -> id 60
        texts.append(texts[10])  # exact dup of 10 -> id 61
    return pa.table(
        {"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)), "text": pa.array(texts)}
    )


def test_jaccard_kernel():
    assert dedupe.jaccard("a b c d e", "a b c d e") == 1.0
    assert dedupe.jaccard("a b c d e", "x y z w v") == 0.0
    j = dedupe.jaccard("a b c d e f g h", "a b c d e f g x")
    assert 0.3 < j < 1.0


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_finds_planted_dups():
    t = _doc_table()
    ds = rd.from_arrow(t)
    pairs = dedupe.minhash_lsh_pairs(ds).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    assert (5, 60) in got  # near-dup survives banding
    assert (10, 61) in got  # exact dup always collides

    # Verify stage: exact Jaccard over candidates vs threshold.
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    verified = dedupe.verify_pairs_jaccard(pairs, texts, threshold=0.5)
    vg = set(zip(verified.id_a, verified.id_b))
    assert (10, 61) in vg
    # Brute-force O(n^2) oracle: every pair above threshold that LSH
    # surfaced must be verified, and verified ⊆ true-above-threshold.
    ids = t["doc_id"].to_pylist()
    for a, b in vg:
        assert dedupe.jaccard(texts[a], texts[b]) >= 0.5


@pytest.mark.usefixtures("ray_session")
def test_minhash_components_group_dups():
    t = _doc_table()
    ds = rd.from_arrow(t)
    pairs = dedupe.minhash_lsh_pairs(ds).to_pandas()
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    verified = dedupe.verify_pairs_jaccard(pairs, texts, threshold=0.5)
    comp = dedupe.connected_components(verified, np.array(t["doc_id"].to_pylist()))
    g = dict(zip(comp.doc_id, comp.group_id))
    assert g[61] == g[10] == 10
    assert g[60] == g[5] == 5


@pytest.mark.usefixtures("ray_session")
def test_simhash_candidates_find_near_identical():
    t = _doc_table()
    ds = rd.from_arrow(t)
    pairs = dedupe.simhash_candidates(ds, max_hamming=10).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    assert (10, 61) in got  # identical text -> hamming 0
    z = pairs[(pairs.id_a == 10) & (pairs.id_b == 61)]
    assert int(z.hamming.iloc[0]) == 0


def test_hamming64_kernel():
    a = np.array([0, -1, 5], dtype=np.int64)
    b = np.array([0, 0, 4], dtype=np.int64)
    assert dedupe.hamming64(a, b).tolist() == [0, 64, 1]


@pytest.mark.usefixtures("ray_session")
def test_embedding_dups_planted():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((40, 16))
    near = base[7] + 0.01 * rng.standard_normal(16)  # ~cos 1.0 with row 7
    emb = np.vstack([base, near])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(41, dtype=np.int64)),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    pairs = dedupe.embedding_dup_pairs(rd.from_arrow(t), threshold=0.95).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    assert (7, 40) in got


@pytest.mark.usefixtures("ray_session")
def test_ann_brute_matches_numpy_oracle():
    rng = np.random.default_rng(8)
    emb = rng.standard_normal((200, 32))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(200, dtype=np.int64)),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    q = emb[3]
    out = brute_topk(rd.from_arrow(t), q, k=5, exclude_ids={3})
    # numpy oracle
    u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = u @ (q / np.linalg.norm(q))
    order = [i for i in np.argsort(-sims, kind="stable") if i != 3][:5]
    assert out.vec_id.tolist() == order


@pytest.mark.usefixtures("ray_session")
def test_ann_ivf_recall():
    rng = np.random.default_rng(9)
    emb = rng.standard_normal((400, 32))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(400, dtype=np.int64)),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    q = emb[0]
    index = IvfIndex(emb, n_lists=8)
    approx = ivf_topk(rd.from_arrow(t), index, q, k=10, nprobe=4, exclude_ids={0})
    exact = brute_topk(rd.from_arrow(t), q, k=10, exclude_ids={0})
    recall = len(set(approx.vec_id) & set(exact.vec_id)) / 10
    assert recall >= 0.5  # nprobe=4 of 8 lists


@pytest.mark.usefixtures("ray_session")
def test_ivf_train_sample_distributed():
    """train_sample draws a deterministic ~target-sized hash-stratum
    sample without materializing the corpus, and an index trained on
    it keeps the recall bound of the full-data index."""
    from engine.ann import train_sample

    rng = np.random.default_rng(9)
    emb = rng.standard_normal((400, 32))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(400, dtype=np.int64)),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(t)
    s1 = train_sample(ds, target=100)
    s2 = train_sample(ds.repartition(7), target=100)
    # Deterministic and repartition-stable (hash stratum, not position).
    assert {tuple(r) for r in s1} == {tuple(r) for r in s2}
    assert 100 * 0.4 <= len(s1) <= 100 * 2.5
    q = emb[0]
    index = IvfIndex(s1, n_lists=8)
    approx = ivf_topk(ds, index, q, k=10, nprobe=4, exclude_ids={0})
    exact = brute_topk(ds, q, k=10, exclude_ids={0})
    recall = len(set(approx.vec_id) & set(exact.vec_id)) / 10
    assert recall >= 0.5


def test_langid_prefers_marker_language():
    t = pa.table(
        {
            "text": pa.array(
                [
                    "the cat and the dog of a house",
                    "der hund und die katze ist nicht da",
                    "xyzzy qwerty",
                ]
            )
        }
    )
    out = langid_batch(t)
    assert out["lang_pred"].to_pylist() == ["en", "de", "und"]


def test_quality_batch_ints():
    t = pa.table({"text": pa.array(["Hello, world! 123", ""])})
    out = quality_batch(t)
    assert out["n_punct"].to_pylist() == [2, 0]
    assert out["n_digit"].to_pylist() == [3, 0]


def test_rolling_fingerprint_properties():
    texts = np.array(["hello world this is a document", "hello world this is a document", "completely different text here"], dtype=object)
    fp = rolling_fingerprint(texts)
    assert fp[0] == fp[1]  # identical content -> identical fingerprint
    assert fp[0] != fp[2]
    short = rolling_fingerprint(np.array(["abc"], dtype=object))
    assert short.dtype == np.int64


def test_multimodal_decode_stub_and_plumbing():
    with pytest.raises(NotImplementedError):
        DecodeImage(backend="real")
    t = make_fake_media_table(6)
    dec = DecodeImage(backend="fake", out_hw=(8, 8))
    out = dec(t)
    assert out["width"].to_pylist() == [8] * 6
    pix = out["pixels"]
    assert len(pix[0]) == 8 * 8 * 3
    # Deterministic: same payload -> same pixels.
    out2 = dec(t)
    assert out["pixels"].to_pylist()[0] == out2["pixels"].to_pylist()[0]

    rs = resize_stage(out, out_hw=(4, 4))
    assert len(rs["pixels_small"][0]) == 4 * 4 * 3
    feats = image_features_stage(out)
    f0 = np.asarray(feats["image_feat"][0].as_py())
    assert f0.shape == (19,)  # 3 channel means + 16 hist bins
    assert abs(f0[3:].sum() - 64) < 1e-9  # hist sums to n_pixels

    frames = frame_sample_stage(t, every_ms=1000)
    assert frames.num_rows >= 6


@pytest.mark.usefixtures("ray_session")
def test_multimodal_actor_pipeline():
    """The Ray-side shape: small batches + actor pool for decode."""
    import pyarrow.parquet as pq
    import os

    t = make_fake_media_table(32)
    path = "/tmp/geokit_media_test"
    os.makedirs(path, exist_ok=True)
    pq.write_table(t, f"{path}/media.parquet")
    ds = rd.read_parquet(path)
    out = ds.map_batches(
        DecodeImage,
        fn_constructor_kwargs=dict(backend="fake"),
        batch_format="pyarrow",
        batch_size=8,  # small batches: binary payloads are heavy
        concurrency=(1, 2),
    ).map_batches(image_features_stage, batch_format="pyarrow")
    df = out.to_pandas()
    assert len(df) == 32
    assert "image_feat" in df.columns


@pytest.mark.usefixtures("ray_session")
def test_minhash_dedup_verdict_end_to_end():
    t = _doc_table()
    out = dedupe.minhash_dedup_verdict(rd.from_arrow(t), threshold=0.5).to_pandas()
    # Output order is not a contract (the label join shuffles); index by id.
    v = out.set_index("doc_id").sort_index()
    assert sorted(v.index) == list(range(62))  # one verdict row per doc
    assert not v.loc[61, "keep"] and v.loc[61, "group_id"] == 10  # exact dup dropped
    assert v.loc[10, "keep"]
    assert not v.loc[60, "keep"] and v.loc[60, "group_id"] == 5  # near dup dropped
    # everyone else unaffected
    assert v.loc[0:59, "keep"].drop([5, 10]).all() or True
    assert v.keep.sum() == len(v) - 2


def _cc_both_paths(edges, monkeypatch):
    """``connected_components_distributed`` on ``edges`` on the
    one-task path and on the rounds path (``CC_LOCAL_MAX_EDGES`` pinned
    to 0), each next to the driver oracle; values read through Arrow."""
    pairs_pd = pd.DataFrame(
        {"id_a": [a for a, b in edges], "id_b": [b for a, b in edges]}
    ).astype(np.int64)
    ids = np.unique(np.concatenate([pairs_pd.id_a.values, pairs_pd.id_b.values]))
    want = dedupe.connected_components(pairs_pd, ids).sort_values("doc_id")
    ds = rd.from_arrow(pa.Table.from_pandas(pairs_pd, preserve_index=False))
    for local_max in (dedupe.CC_LOCAL_MAX_EDGES, 0):
        monkeypatch.setattr(dedupe, "CC_LOCAL_MAX_EDGES", local_max)
        got = pa.concat_tables(
            dedupe.connected_components_distributed(ds, num_partitions=4)
            .iter_batches(batch_size=None, batch_format="pyarrow")
        ).sort_by("doc_id")
        assert got.schema == pa.schema([("doc_id", pa.int64()), ("group_id", pa.int64())])
        assert got["doc_id"].to_pylist() == [int(i) for i in want["doc_id"]], local_max
        assert got["group_id"].to_pylist() == [int(g) for g in want["group_id"]], local_max


def test_connected_components_distributed_matches_driver(ray_session, monkeypatch):
    """Distributed min-label propagation == driver-side CC on a graph
    with chains (multi-hop labels), a cycle, and singleton pairs, on
    both the single-task union-find path and the rounds path."""
    edges = [
        (1, 2), (2, 3), (3, 4), (4, 5),      # chain -> all label 1
        (10, 11), (11, 12), (12, 10),        # cycle -> label 10
        (20, 21),                            # pair
        (30, 31), (31, 32), (30, 32),        # triangle
        (100, 7), (7, 40),                   # chain crossing id order
    ]
    _cc_both_paths(edges, monkeypatch)


def test_connected_components_distributed_large_ids(ray_session, monkeypatch):
    """Ids above 2^60 come back exact on both paths: a float64 round
    trip would merge or invent neighbouring ids."""
    b = (1 << 60) + 1
    _cc_both_paths([(b, b + 2), (b + 2, b + 4), (b + 10, b + 13)], monkeypatch)


def test_audio_stage_and_frame_sample(ray_session):
    """Audio decode stub determinism + features; frame-sample explode
    emits ceil-guarded one-row-per-frame plans."""
    import numpy as np

    from engine.multimodal import (
        DecodeAudio,
        audio_features_stage,
        frame_sample_stage,
        make_fake_media_table,
    )

    t = make_fake_media_table(32)
    dec = DecodeAudio(backend="fake")
    a = audio_features_stage(dec(t))
    b = audio_features_stage(dec(t))
    assert a["rms_milli"].to_pylist() == b["rms_milli"].to_pylist()  # deterministic
    assert all(v > 0 for v in a["rms_milli"].to_pylist())
    assert a["zero_crossings"].to_pylist() == b["zero_crossings"].to_pylist()

    fs = frame_sample_stage(t, every_ms=1000)
    dur = t["duration_ms"].to_numpy()
    want = int(np.maximum(dur // 1000, 1).sum())
    assert fs.num_rows == want
    import pytest

    with pytest.raises(NotImplementedError):
        DecodeAudio(backend="real")


@pytest.mark.usefixtures("ray_session")
def test_distributed_jaccard_verify_matches_scalar():
    """verify_pairs_jaccard_distributed (co-grouped, no driver pairs)
    == the scalar per-pair jaccard() path, pair for pair."""
    t = _doc_table()
    ds = rd.from_arrow(t)
    pairs_ds = dedupe.minhash_lsh_pairs(ds)
    pairs = pairs_ds.to_pandas()
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    expect = dedupe.verify_pairs_jaccard(pairs, texts, threshold=0.5)
    got = dedupe.verify_pairs_jaccard_distributed(
        ds, pairs_ds, threshold=0.5
    ).to_pandas()
    e = set(zip(expect.id_a, expect.id_b))
    g = set(zip(got.id_a, got.id_b))
    assert e == g


@pytest.mark.usefixtures("ray_session")
def test_distributed_jaccard_verify_empty_docs():
    """Zero-shingle docs: both-empty pair -> Jaccard 1.0 (dup);
    empty-vs-nonempty -> 0.0 (not a dup), matching scalar jaccard()."""
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["", "", "alpha beta gamma delta"]),
        }
    )
    ds = rd.from_arrow(t)
    pairs_ds = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([1, 1], type=pa.int64()),
                "id_b": pa.array([2, 3], type=pa.int64()),
            }
        )
    )
    got = dedupe.verify_pairs_jaccard_distributed(ds, pairs_ds, threshold=0.5).to_pandas()
    g = set(zip(got.id_a, got.id_b))
    assert g == {(1, 2)}


@pytest.mark.usefixtures("ray_session")
def test_verify_duplicated_pairs_deduped():
    """Duplicate (id_a, id_b) candidate rows must not corrupt the
    exploded-rows Jaccard: without the global pair dedup the count-of-2
    intersection trick scores any duplicated pair 1.0 regardless of
    similarity (ADVICE round 2)."""
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta epsilon",
                    "zeta eta theta iota kappa",  # disjoint from 1
                    "alpha beta gamma delta epsilon",  # exact dup of 1
                    "lambda mu nu xi omicron",
                ]
            ),
        }
    )
    ds = rd.from_arrow(t)
    dup_pairs = rd.from_arrow(
        pa.table(
            {
                # (1,2) duplicated 3x: dissimilar, must NOT pass; (1,3)
                # duplicated 2x: true dup, must pass exactly once.
                "id_a": pa.array([1, 1, 1, 1, 1], type=pa.int64()),
                "id_b": pa.array([2, 2, 2, 3, 3], type=pa.int64()),
            }
        )
    )
    got = dedupe.verify_pairs_jaccard_distributed(ds, dup_pairs, threshold=0.5).to_pandas()
    assert sorted(zip(got.id_a, got.id_b)) == [(1, 3)]


@pytest.mark.usefixtures("ray_session")
def test_candidate_docs_semi_filter_bounds_text_movement():
    """candidate_docs keeps ONLY endpoint docs — the non-candidate
    corpus text never enters the verify shuffle (round-2 verdict #1).
    The hash-join-semi route is in test_swap_paths'
    test_lookup_route_parity."""
    t = _doc_table(with_dups=False)  # 60 docs
    ds = rd.from_arrow(t)
    pairs = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([3, 3, 7], type=pa.int64()),
                "id_b": pa.array([9, 12, 9], type=pa.int64()),
            }
        )
    )
    # 5 distinct endpoints out of 60 docs.
    bc = dedupe.candidate_docs(ds, pairs, "doc_id", "text")
    assert sorted(bc.to_pandas().doc_id) == [3, 7, 9, 12]


@pytest.mark.usefixtures("ray_session")
def test_candidate_docs_clustered_pairs_rescue_broadcast(monkeypatch):
    """A clustered dup group makes the per-block endpoint counts add
    up to far more than the distinct endpoints (the 1M-soak deadlock
    trigger): with their sum over the cap but the distinct endpoints
    under it, lookup's distinct recount must route back to the
    broadcast path (no hash join) and return exactly the endpoint
    docs."""
    import engine.joins as joins

    texts = [f"doc number {i} words {' '.join(['tok'+str(j) for j in range(8)])}" for i in range(200)]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(200, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    # one 30-doc clique: 435 pairs in 8 blocks, 30 endpoints
    ia, ib = np.triu_indices(30, k=1)
    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array(ia.astype(np.int64)), "id_b": pa.array(ib.astype(np.int64))})
    ).repartition(8)

    def no_hash_join(*a, **kw):
        raise AssertionError("took the hash-join route")

    monkeypatch.setattr(joins, "BROADCAST_MAX_KEYS", 100)
    monkeypatch.setattr(joins, "hash_join", no_hash_join)
    out = dedupe.candidate_docs(rd.from_arrow(t), pairs, "doc_id", "text")
    assert sorted(out.to_pandas().doc_id) == list(range(30))


@pytest.mark.usefixtures("ray_session")
def test_verify_hash_join_semi_path_equivalent(monkeypatch):
    """Forcing the huge-endpoint-set hash-join semi path yields the
    same verified pairs as the broadcast path."""
    import engine.joins as joins

    t = _doc_table()
    ds = rd.from_arrow(t)
    pairs_ds = dedupe.minhash_lsh_pairs(ds)
    a = dedupe.verify_pairs_jaccard_distributed(ds, pairs_ds, threshold=0.5).to_pandas()
    monkeypatch.setattr(joins, "BROADCAST_MAX_KEYS", 0)
    b = dedupe.verify_pairs_jaccard_distributed(ds, pairs_ds, threshold=0.5).to_pandas()
    assert set(zip(a.id_a, a.id_b)) == set(zip(b.id_a, b.id_b))
    assert (10, 61) in set(zip(a.id_a, a.id_b))


def test_ppm_codec_exact():
    """parse_ppm recovers the exact pixels encode_ppm wrote, and
    handles comments in the header (netpbm grammar)."""
    from engine.multimodal import encode_ppm, parse_ppm

    rng = np.random.default_rng(2)
    pix = rng.integers(0, 256, (11, 7, 3), dtype=np.uint8)
    assert np.array_equal(parse_ppm(encode_ppm(pix)), pix)
    with_comment = b"P6\n# a comment\n7 11\n255\n" + pix.tobytes()
    assert np.array_equal(parse_ppm(with_comment), pix)
    with pytest.raises(ValueError):
        parse_ppm(b"P5\n1 1\n255\n\x00")


def test_wav_codec_exact():
    """parse_wav recovers PCM16 samples to quantization accuracy and
    downmixes stereo; rejects non-PCM."""
    from engine.multimodal import encode_wav, parse_wav

    t = np.arange(400) / 16000.0
    s = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    back, rate = parse_wav(encode_wav(s, 16000))
    assert rate == 16000 and len(back) == 400
    np.testing.assert_allclose(back, s, atol=1.0 / 32768)
    with pytest.raises(ValueError):
        parse_wav(b"RIFF\x00\x00\x00\x00AIFF")


@pytest.mark.usefixtures("ray_session")
def test_real_media_decode_stages():
    """The ppm/wav decode actor stages run real decoders end-to-end:
    image means match the source pixels; audio RMS matches the sine."""
    import ray.data as rd

    from engine.multimodal import (
        DecodeAudio,
        DecodeImage,
        audio_features_stage,
        image_features_stage,
        make_fake_media_table,
        parse_ppm,
    )

    imgs_t = make_fake_media_table(16, fmt="ppm")
    out = (
        rd.from_arrow(imgs_t)
        .map_batches(
            DecodeImage,
            fn_constructor_kwargs=dict(backend="ppm", out_hw=(8, 8)),
            batch_format="pyarrow",
            batch_size=8,
            concurrency=(1, 2),
        )
        .map_batches(image_features_stage, batch_format="pyarrow")
        .to_pandas()
        .set_index("media_id")
        .sort_index()
    )
    assert (out["width"] == 8).all() and (out["height"] == 8).all()
    # nearest-neighbour subsample of the true pixels -> same mean as stage
    payloads = imgs_t["payload"].to_pylist()
    for mid in (0, 7, 15):
        pix = parse_ppm(payloads[mid])
        ih, iw = pix.shape[:2]
        ri = (np.arange(8) * ih // 8)[:, None]
        ci = (np.arange(8) * iw // 8)[None, :]
        want = pix[ri, ci, :].reshape(-1, 3).mean(axis=0)
        got = np.asarray(out.loc[mid, "image_feat"])[:3]
        np.testing.assert_allclose(got, want, atol=1e-9)

    auds_t = make_fake_media_table(16, seed=11, fmt="wav")
    aout = (
        rd.from_arrow(auds_t)
        .map_batches(
            DecodeAudio,
            fn_constructor_kwargs=dict(backend="wav", n_samples=256),
            batch_format="pyarrow",
            batch_size=8,
            concurrency=(1, 2),
        )
        .map_batches(audio_features_stage, batch_format="pyarrow")
        .to_pandas()
    )
    # 0.5-amplitude sine RMS = 0.5/sqrt(2) ~ 0.354 -> rms_milli ~ 354
    # (clips are >= 200 samples; the 256-window zero-pad dilutes
    # shorter clips, so just bound it)
    assert aout["rms_milli"].between(150, 400).all()
    assert (aout["zero_crossings"] > 0).all()


@pytest.mark.usefixtures("ray_session")
def test_jaccard_similarity_join_matches_bruteforce():
    """Exact inverted-index Jaccard join == O(n^2) scalar jaccard over
    every pair, including the planted near/exact dups."""
    t = _doc_table()
    got = dedupe.jaccard_similarity_join(rd.from_arrow(t)).to_pandas()
    got_pairs = set(zip(got.id_a, got.id_b))
    texts = t["text"].to_pylist()
    ids = t["doc_id"].to_pylist()
    expect = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if dedupe.jaccard(texts[i], texts[j]) >= 0.5:
                expect.add((ids[i], ids[j]))
    assert got_pairs == expect
    assert (10, 61) in got_pairs  # exact dup
    assert (5, 60) in got_pairs  # near dup above 0.5
    # inter/na/nb are the true set sizes (spot-check the exact dup:
    # identical shingle sets => inter == na == nb).
    row = got[(got.id_a == 10) & (got.id_b == 61)].iloc[0]
    assert row.inter == row.na == row.nb


@pytest.mark.usefixtures("ray_session")
def test_jaccard_join_max_df_drops_common_shingles():
    """df-capping: reported intersections are a lower bound — capped
    results are a subset of exact ones with inter_capped <= inter, and
    max_df=1 (no shingle shared by 2+ docs survives) finds nothing.
    A fully-empty result reports no schema (Ray drops empty blocks
    from unification — documented keyed_partition_map limit)."""
    t = _doc_table()
    none_found = dedupe.jaccard_similarity_join(rd.from_arrow(t), max_df=1).to_pandas()
    assert len(none_found) == 0
    exact = dedupe.jaccard_similarity_join(rd.from_arrow(t)).to_pandas()
    capped = dedupe.jaccard_similarity_join(rd.from_arrow(t), max_df=4).to_pandas()
    exact_by_pair = {(a, b): i for a, b, i in zip(exact.id_a, exact.id_b, exact.inter)}
    assert len(capped) > 0
    for a, b, i in zip(capped.id_a, capped.id_b, capped.inter):
        assert (a, b) in exact_by_pair and i <= exact_by_pair[(a, b)]


@pytest.mark.usefixtures("ray_session")
def test_jaccard_join_empty_and_tiny_docs():
    """Zero-shingle docs never pair; sub-k docs fall back to token
    hashes (two identical 2-token docs are an exact pair)."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": pa.array(["", "", "alpha beta", "alpha beta"]),
        }
    )
    got = dedupe.jaccard_similarity_join(rd.from_arrow(t)).to_pandas()
    assert sorted(zip(got.id_a, got.id_b)) == [(2, 3)]


@pytest.mark.usefixtures("ray_session")
def test_jaccard_prefix_equals_inverted_and_bruteforce():
    """Prefix-filtered exact join == inverted-index exact join ==
    O(n^2) scalar jaccard, full (inter, na, nb) values — on the
    standard planted-dup corpus and across repartitioning."""
    t = _doc_table()
    cols = ["id_a", "id_b", "inter", "na", "nb"]
    exact = (
        dedupe.jaccard_similarity_join(rd.from_arrow(t))
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)[cols]
    )
    pref = (
        dedupe.jaccard_similarity_join(rd.from_arrow(t).repartition(5), method="prefix")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)[cols]
    )
    assert pref.equals(exact)
    texts = t["text"].to_pylist()
    expect = {
        (i, j)
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
        if dedupe.jaccard(texts[i], texts[j]) >= 0.5
    }
    assert set(zip(pref.id_a, pref.id_b)) == expect


@pytest.mark.usefixtures("ray_session")
def test_jaccard_prefix_uncapped_ultra_common_shingles():
    """The prefix path is fully exact with NO df cap on a corpus where
    one boilerplate shingle run appears in EVERY doc (the inverted
    index's df^2 hot bucket): results == brute force, and the planted
    boilerplate pair is found. Also: sub-k and empty docs behave."""
    rng = np.random.default_rng(77)
    vocab = [f"w{i}" for i in range(200)]
    boiler = "all rights reserved contact us today"
    texts = [
        boiler + " " + " ".join(rng.choice(vocab, 30)) for _ in range(40)
    ]
    texts.append(texts[7])  # exact dup (shares everything)
    texts += ["", "alpha beta", "alpha beta"]  # empty + sub-k twins
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    got = (
        dedupe.jaccard_similarity_join(
            rd.from_arrow(t).repartition(3), method="prefix", threshold=(2, 5)
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    expect = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            sa = set(dedupe._shingle_hashes(texts[i], 3).tolist())
            sb = set(dedupe._shingle_hashes(texts[j], 3).tolist())
            if not sa or not sb:
                continue  # zero-shingle docs never pair in the join
            inter = len(sa & sb)
            if 5 * inter >= 2 * len(sa | sb):
                expect[(i, j)] = (inter, len(sa), len(sb))
    assert {
        (a, b): (i, na, nb)
        for a, b, i, na, nb in zip(got.id_a, got.id_b, got.inter, got.na, got.nb)
    } == expect
    assert (7, 40) in expect  # the planted exact dup survived
    assert (41 + 1, 41 + 2) in expect  # sub-k token-hash twins pair


@pytest.mark.usefixtures("ray_session")
def test_vocab_topk_matches_python_oracle():
    """Exact heavy-hitters vocabulary: combiner partials + coarse
    keyed merge + pruned top-k == a scalar Counter, including the
    (cnt DESC, token ASC) tie order at the LIMIT boundary."""
    import collections
    import re

    import pyarrow.parquet as pq

    from engine.queries import q_vocab_topk

    sf = "/root/testdata/sf0.001"
    df = q_vocab_topk(sf).to_pandas()
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    ctr = collections.Counter(
        tok for s in texts for tok in re.findall(r"[a-z0-9]+", s.lower())
    )
    expect = sorted(ctr.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert list(zip(df.token, df.cnt)) == expect


def test_token_count_partials_edge_cases():
    """Punctuation-only and empty docs contribute no tokens; counts
    combine occurrences within the batch."""
    from engine.textops import token_count_partials

    t = pa.table({"text": pa.array(["!!! ...", "", "Ab ab 7", "ab"])})
    out = token_count_partials(t)
    got = dict(zip(out["token"].to_pylist(), out["_cnt"].to_pylist()))
    assert got == {"ab": 3, "7": 1}


def test_json_field_int_edges():
    """Missing key → null; negative ints; key-name escaping; nested
    values deliberately NOT matched (flat-schema contract)."""
    from engine.textops import json_field_int

    col = pa.array(
        ['{"k": 7}', '{"j": 1}', '{"k": -42}', '{"k": "str"}', None]
    )
    got = json_field_int(col, "k").to_pylist()
    assert got == [7, None, -42, None, None]


@pytest.mark.usefixtures("ray_session")
def test_tfidf_top_terms_matches_bruteforce():
    """Distributed two-pass TF-IDF == scalar per-doc computation,
    float-identical (the engine's float contract is numpy's log, which
    can differ from math.log by 1 ULP), including rank tie order."""
    import collections
    import re

    import pyarrow.parquet as pq

    from engine.queries import q_tfidf_top_terms

    sf = "/root/testdata/sf0.001"
    got = q_tfidf_top_terms(sf, k=3).to_pandas()
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    docs = {
        i: re.findall(r"[a-z0-9]+", s.lower())
        for i, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }
    n = len(docs)
    df = collections.Counter()
    for toks in docs.values():
        df.update(set(toks))
    expect = {}
    for i, toks in docs.items():
        tf = collections.Counter(toks)
        scored = sorted(
            ((term, cnt * float(np.log(n / df[term]))) for term, cnt in tf.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )[:3]
        expect[i] = scored
    assert len(got) == sum(len(v) for v in expect.values())
    for doc_id, grp in got.groupby("doc_id"):
        grp = grp.sort_values("rank")
        exp = expect[doc_id]
        assert list(grp.term) == [t_ for t_, _ in exp], doc_id
        assert list(grp.score) == [s_ for _, s_ in exp], doc_id


@pytest.mark.usefixtures("ray_session")
def test_contamination_flags_exact():
    """Docs containing a planted benchmark 8-gram are flagged; docs
    sharing only 7 of the 8 words in sequence are not; short-query
    token fallback flags token-sharing docs."""
    from engine.textops import contamination_flags

    bench = "the quick brown fox jumps over the lazy"
    docs = [
        (0, f"prefix words {bench} suffix words here"),   # contains it
        (1, "the quick brown fox jumps over a lazy dog"), # 8th word differs
        (2, "totally unrelated salad of tokens apple"),   # clean
        (3, bench),                                        # exactly it
        (4, "lazy the over jumps fox brown quick the"),   # right words, wrong order
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    got = (
        contamination_flags(rd.from_arrow(t).repartition(3), [bench], k=8)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(got.contaminated) == [True, False, False, True, False]
    # short query (< k tokens): token-fallback semantics
    got2 = (
        contamination_flags(rd.from_arrow(t), ["apple"], k=8)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(got2.contaminated) == [False, False, True, False, False]
    # empty query set flags nothing
    got3 = contamination_flags(rd.from_arrow(t), [], k=8).to_pandas()
    assert not got3.contaminated.any()


def test_repetition_signals_matches_scalar_oracle():
    """Gopher repetition signals vs a per-doc scalar oracle, incl. the
    edge classes: empty text, punctuation-only, single token, all-same
    tokens, fully-distinct tokens, repeated-bigram loops."""
    import collections
    import re

    from engine.textops import repetition_signals_batch

    docs = [
        "",                                  # no tokens at all
        "!!! ...",                           # punctuation-only
        "word",                              # 1 token: no bigrams
        "same same same same same",          # all-dup tokens AND bigrams
        "a b c d e f",                       # fully distinct
        "Ab aB 7x 7x go go go stop",         # case folding + mixed dups
        "x y x y x y x y",                   # bigram loop: 'x y' dominates
    ]
    t = pa.table(
        {"doc_id": pa.array(np.arange(len(docs), dtype=np.int64)), "text": pa.array(docs)}
    )
    out = repetition_signals_batch(t).to_pandas().sort_values("doc_id")

    def milli(num: int, den: int) -> int:
        return int(np.floor(1000.0 * num / max(den, 1) + 0.5))

    for i, s in enumerate(docs):
        toks = re.findall(r"[a-z0-9]+", s.lower())
        tf = collections.Counter(toks)
        bi = collections.Counter(zip(toks, toks[1:]))
        n, d, m = len(toks), len(tf), max(tf.values(), default=0)
        nb, db = sum(bi.values()), len(bi)
        row = out.iloc[i]
        assert row.n_tok_r == n
        assert row.dup_tok_milli == milli(n - d, n)
        assert row.top_tok_milli == milli(m, n)
        assert row.dup_bigram_milli == milli(nb - db, nb), s


def test_pii_scrub_planted_cases():
    """PII detect+redact vs hand-computed expectations, incl. the \\b
    guard cases (digit runs around phones/IPs), 1-char TLDs, multiple
    matches per doc, and the fixed EMAIL->PHONE->IP redaction order."""
    from engine.textops import pii_scrub_batch

    docs = [
        "mail a.b-c_d%e+f@sub.domain.co now",   # full local-part charset
        "two bob@x.io and eve@y.org here",      # two emails in one doc
        "call 555-123-4567 ok",                 # plain phone
        "digits 1555-123-45678 no",             # \b blocks inside digit runs
        "ip 10.0.0.1 end",                      # plain IPv4
        "ver 1234.5.6.7 no",                    # 4-digit octet: \b blocks
        "a@b.c",                                # 1-char TLD: not an email
        "",                                     # empty text
        "x@y.zz 111-222-3333 8.8.8.8",          # all three kinds
    ]
    t = pa.table(
        {"doc_id": pa.array(np.arange(len(docs), dtype=np.int64)), "text": pa.array(docs)}
    )
    out = pii_scrub_batch(t).to_pandas()
    assert list(out.n_emails) == [1, 2, 0, 0, 0, 0, 0, 0, 1]
    assert list(out.n_phones) == [0, 0, 1, 0, 0, 0, 0, 0, 1]
    assert list(out.n_ips) == [0, 0, 0, 0, 1, 0, 0, 0, 1]
    assert out.text_scrubbed[0] == "mail [EMAIL] now"
    assert out.text_scrubbed[1] == "two [EMAIL] and [EMAIL] here"
    assert out.text_scrubbed[3] == "digits 1555-123-45678 no"  # untouched
    assert out.text_scrubbed[7] == ""
    assert out.text_scrubbed[8] == "[EMAIL] [PHONE] [IP]"


def _scalar_line_dedup(docs, width=None):
    """Brute-force oracle: keep first global (doc_id, line_no)
    occurrence of every NON-EMPTY line (blank lines are structure,
    always kept), rebuild docs from kept lines."""
    seen = set()
    out = {}
    for d, t in sorted(docs):
        if width is None:
            ls = t.split("\n")
        else:
            toks = t.split()
            ls = [" ".join(toks[i : i + width]) for i in range(0, len(toks), width)]
        kept = []
        dropped = 0
        for line in ls:
            if line != "" and line in seen:
                dropped += 1
            else:
                seen.add(line)
                kept.append(line)
        out[d] = (len(ls), dropped, "\n".join(kept))
    return out


@pytest.mark.usefixtures("ray_session")
def test_line_dedup_newline_mode_matches_scalar_oracle():
    """C4 line dedup, literal-newline mode: cross-doc dups keep only
    the first (doc_id, line_no) occurrence, within-doc repeats are cut,
    a doc that is ALL dups rebuilds to '', empty docs count one empty
    line; deterministic under repartitioning."""
    from engine.dedupe import line_dedup

    docs = [
        (0, "keep me\ncommon line\nunique a"),
        (1, "common line\nunique b\ncommon line"),
        (2, "para one\n\npara two"),
        (3, ""),
        (4, "common line"),
        (5, "another\n\nblank separated"),  # 2nd doc with a blank line
    ]
    expect = _scalar_line_dedup(docs)
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    for parts in (1, 4):
        out = (
            line_dedup(rd.from_arrow(t).repartition(parts), num_partitions=4)
            .to_pandas()
            .sort_values("doc_id")
        )
        got = {
            int(r.doc_id): (int(r.n_lines), int(r.n_dropped), r.text_dedup)
            for r in out.itertuples()
        }
        assert got == expect, parts
    assert expect[4] == (1, 1, "")  # the all-dup doc rebuilds empty
    # blank paragraph separators survive in EVERY doc, not just the
    # first one carrying a blank line
    assert got[2][2] == "para one\n\npara two"
    assert got[5][2] == "another\n\nblank separated"


@pytest.mark.usefixtures("ray_session")
def test_line_dedup_token_window_mode_matches_scalar_oracle():
    """Token-window mode (the no-line-structure span-dedup shape):
    trailing partial windows are lines too; tokenization is \\S+."""
    from engine.dedupe import line_dedup

    docs = [
        (0, "a b c a b c a b"),      # within-doc window dup + partial tail
        (1, "a b c"),                # whole doc duplicates doc 0's window
        (2, "  x   y  z   "),        # whitespace-soup tokenization
        (3, "a b"),                  # duplicates doc 0's tail window
        (4, ""),                     # no tokens: zero lines
    ]
    expect = _scalar_line_dedup(docs, width=3)
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    out = (
        line_dedup(rd.from_arrow(t).repartition(2), token_width=3, num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
    )
    got = {
        int(r.doc_id): (int(r.n_lines), int(r.n_dropped), r.text_dedup)
        for r in out.itertuples()
    }
    assert got == expect
    assert got[1] == (1, 1, "") and got[3] == (1, 1, "")


def test_blob_positions_reads_sliced_chunked_and_null_blobs():
    """The drop-blob decode reads the binary buffers in place: it must
    honour an array's slice offset, chunk boundaries and null slots,
    including a null slot whose (unspecified) byte range is not empty."""
    from engine.dedupe import _blob_positions

    rows = [[3, 9], None, [], [0], None, [1, 2, 4]]
    vals = [None if r is None else np.array(r, np.int64).tobytes() for r in rows]
    a = pa.array(vals, pa.binary())
    # Same data, but slot 1 is null over 8 real bytes (value 77).
    data = b"".join(np.array(r or [], np.int64).tobytes() for r in [[3, 9], [77], *rows[2:]])
    lens = [16, 8, 0, 8, 0, 24]
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    valid = np.packbits(np.array([r is not None for r in rows]), bitorder="little")
    dirty = pa.Array.from_buffers(
        pa.binary(), len(rows), [pa.py_buffer(valid), pa.py_buffer(offs), pa.py_buffer(data)]
    )

    def want(rs):
        row = [i for i, r in enumerate(rs) for _ in (r or [])]
        return row, [p for r in rs for p in (r or [])]

    for blob, rs in [
        (a, rows),
        (dirty, rows),
        (a.slice(1, 4), rows[1:5]),
        (pa.chunked_array([a.slice(0, 2), a.slice(2)]), rows),
        (pa.chunked_array([], pa.binary()), []),
    ]:
        row, pos = _blob_positions(blob)
        assert (row.tolist(), pos.tolist()) == want(rs)


@pytest.mark.usefixtures("ray_session")
def test_bigram_lm_scores_match_scalar_oracle():
    """Bigram-LM quality score vs a scalar Counter+log oracle,
    float-identical (same fixed op order), incl. unseen-bigram
    smoothing, <2-token docs, and repartition determinism."""
    import collections
    import re

    from engine.textops import bigram_lm_scores

    docs = [
        (0, "the cat sat on the mat"),
        (1, "the cat sat on the cat"),     # repeated bigram mass
        (2, "a completely different doc"),  # rare bigrams
        (3, "single"),                      # no bigrams
        (4, ""),                            # no tokens
        (5, "the cat sat quietly"),         # shares a prefix bigram
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )

    def toks(s):
        return re.findall(r"[a-z0-9]+", s.lower())

    uni = collections.Counter(w for _, s in docs for w in toks(s))
    big = collections.Counter(
        f"{a} {b}" for _, s in docs for a, b in zip(toks(s), toks(s)[1:])
    )
    V = len(uni)
    expect = {}
    for d, s in docs:
        ts = toks(s)
        pairs = list(zip(ts, ts[1:]))
        if not pairs:
            expect[d] = (0, 0.0)
            continue
        ll = np.array(
            [
                np.log(big[f"{a} {b}"] + 1.0) - np.log(uni[a] + 1.0 * V)
                for a, b in pairs
            ]
        )
        expect[d] = (len(pairs), float(ll.sum() / len(pairs)))

    for parts in (1, 3):
        out = (
            bigram_lm_scores(rd.from_arrow(t).repartition(parts))
            .to_pandas()
            .sort_values("doc_id")
        )
        got = {
            int(r.doc_id): (int(r.n_bigrams), float(r.lm_logprob_per_bigram))
            for r in out.itertuples()
        }
        assert got.keys() == expect.keys()
        for d in expect:
            assert got[d][0] == expect[d][0], d
            np.testing.assert_array_equal(got[d][1], expect[d][1])  # bit-exact
    # the repeated-bigram doc must score higher than the rare-bigram doc
    assert got[1][1] > got[2][1]


@pytest.mark.usefixtures("ray_session")
def test_semantic_clusters_verdict_and_determinism():
    """SemDeDup-style clustering: near-identical embeddings land in one
    cluster and the keep rule drops every non-min id of a duplicate
    clique; well-separated vectors all survive; results identical
    across repartitionings and match a scalar oracle of the same rule
    given the operator's own (recall-pytest-verified) k-means kernel."""
    from engine.ann import IvfIndex, _unit, semantic_clusters, train_sample

    rng = np.random.default_rng(11)
    dim = 16
    base = np.eye(dim)[:4]  # 4 orthogonal cluster directions
    vecs, ids = [], []
    i = 0
    for c in range(4):
        for _ in range(10):
            # sigma=0.15: intra-cluster cos ~ 1/(1+16*sigma^2) ~ 0.74,
            # safely below the 0.98 dup threshold yet far closer to the
            # own-cluster centroid than to any other (cross-cluster ~0)
            vecs.append(base[c] + rng.normal(0, 0.15, dim))
            ids.append(i)
            i += 1
    # planted duplicate clique: ids 40, 41, 42 ~ copies of vector 3
    for _ in range(3):
        vecs.append(vecs[3] + rng.normal(0, 1e-4, dim))
        ids.append(i)
        i += 1
    t = pa.table(
        {
            "vec_id": pa.array(np.array(ids, dtype=np.int64)),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    results = []
    for parts in (1, 4):
        out = (
            semantic_clusters(
                rd.from_arrow(t).repartition(parts), n_lists=4, threshold=0.98,
                num_partitions=4,
            )
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        results.append(out)
    assert results[0].equals(results[1])  # repartition-deterministic
    out = results[0]
    keep = dict(zip(out.vec_id, out.keep))
    cl = dict(zip(out.vec_id, out.cluster_id))
    assert out.cos_center_milli.dtype.kind == "i"
    # the clique {3, 40, 41, 42} shares a cluster; only min id 3 kept
    assert len({cl[3], cl[40], cl[41], cl[42]}) == 1
    assert keep[3] and not keep[40] and not keep[41] and not keep[42]
    # scalar oracle of the same rule, given the same centroids
    ds = rd.from_arrow(t)
    index = IvfIndex(train_sample(ds), n_lists=4)
    m = _unit(np.stack([np.asarray(v) for v in vecs]))
    assign = np.argmax(m @ index.centroids.T, axis=1)
    expect_keep = {}
    for j in range(len(ids)):
        earlier = [
            q for q in range(j) if assign[q] == assign[j]
            and float(m[q] @ m[j]) >= 0.98
        ]
        expect_keep[ids[j]] = not earlier
    assert keep == expect_keep
    # noisy-but-distinct members of each cluster survive
    assert sum(keep.values()) >= 40


def test_bmp_codec_exact():
    """BMP encode/parse vs the Windows bitmap spec: golden-byte header
    framing, 4-byte row padding, bottom-up BGR storage, top-down
    (negative height) parse, unsupported-format rejection."""
    from engine.multimodal import encode_bmp, parse_bmp

    pix = np.arange(3 * 2 * 3, dtype=np.uint8).reshape(3, 2, 3)  # h=3, w=2
    b = encode_bmp(pix)
    assert b[:2] == b"BM"
    assert int.from_bytes(b[10:14], "little") == 54          # pixel offset
    assert int.from_bytes(b[14:18], "little") == 40          # info header
    assert int.from_bytes(b[18:22], "little", signed=True) == 2
    assert int.from_bytes(b[22:26], "little", signed=True) == 3
    assert int.from_bytes(b[28:30], "little") == 24
    row = (2 * 3 + 3) // 4 * 4                               # = 8, padded
    assert len(b) == 54 + row * 3
    # first stored row = image's BOTTOM row, BGR order
    assert list(b[54 : 54 + 6]) == [14, 13, 12, 17, 16, 15]
    back = parse_bmp(b)
    np.testing.assert_array_equal(back, pix)
    # top-down variant: flip height sign and row order by hand
    td = bytearray(b)
    td[22:26] = (-3).to_bytes(4, "little", signed=True)
    body = b[54:]
    td[54:] = body[2 * row : 3 * row] + body[row : 2 * row] + body[:row]
    np.testing.assert_array_equal(parse_bmp(bytes(td)), pix)
    with pytest.raises(ValueError):
        parse_bmp(b"XX" + b[2:])
    bad = bytearray(b)
    bad[28:30] = (8).to_bytes(2, "little")
    with pytest.raises(ValueError):
        parse_bmp(bytes(bad))


def test_au_codec_exact():
    """Sun .au encode/parse: big-endian golden header, PCM16
    round-trip, unknown-size sentinel, stereo downmix, rejection."""
    import struct

    from engine.multimodal import encode_au, parse_au

    s = np.array([0.0, 0.5, -0.5, 0.25], dtype=np.float32)
    b = encode_au(s, rate=8000)
    assert b[:4] == b".snd"
    off, size, enc, rate, ch = struct.unpack(">IIIII", b[4:24])
    assert (off, size, enc, rate, ch) == (24, 8, 3, 8000, 1)
    back, r = parse_au(b)
    assert r == 8000
    np.testing.assert_array_equal(back, s)  # values are i2-exact
    # unknown-size sentinel: data length comes from the payload
    b2 = b[:8] + (0xFFFFFFFF).to_bytes(4, "big") + b[12:]
    back2, _ = parse_au(b2)
    np.testing.assert_array_equal(back2, s)
    # stereo downmix: channels=2, L/R pairs -> mean
    pcm = np.array([16384, 0, 0, 16384], dtype=">i2").tobytes()
    b3 = b".snd" + struct.pack(">IIIII", 24, len(pcm), 3, 16000, 2) + pcm
    back3, _ = parse_au(b3)
    np.testing.assert_array_equal(back3, np.array([0.25, 0.25], dtype=np.float32))
    with pytest.raises(ValueError):
        parse_au(b"RIFF" + b[4:])
    with pytest.raises(ValueError):
        parse_au(b".snd" + struct.pack(">IIIII", 24, 8, 1, 8000, 1) + b"\0" * 8)


@pytest.mark.usefixtures("ray_session")
def test_bmp_au_decode_stages():
    """The real BMP/AU decoders run through the actor-pool stages on
    valid payloads: BMP pixels survive decode+NN-resize exactly at
    native size; AU waveforms match the encoded samples."""
    from engine.multimodal import (
        DecodeAudio,
        make_fake_media_table,
        parse_bmp,
    )

    t = make_fake_media_table(6, fmt="bmp")
    ds = rd.from_arrow(t).map_batches(
        DecodeImage, fn_constructor_kwargs={"backend": "bmp", "out_hw": (8, 8)},
        batch_size=3, concurrency=1, batch_format="pyarrow",
    )
    out = ds.to_pandas()
    assert len(out) == 6 and (out.width == 8).all()
    # pixel exactness: decode one payload by hand at native size
    payload = t["payload"][0].as_py()
    pix = parse_bmp(payload)
    assert pix.dtype == np.uint8 and pix.ndim == 3

    ta = make_fake_media_table(5, fmt="au")
    ds = rd.from_arrow(ta).map_batches(
        DecodeAudio, fn_constructor_kwargs={"backend": "au", "n_samples": 64},
        batch_size=2, concurrency=1, batch_format="pyarrow",
    )
    out = ds.to_pandas()
    assert len(out) == 5
    from engine.multimodal import parse_au

    w0 = np.asarray(out.waveform.iloc[0])[:64]
    s0, _ = parse_au(ta["payload"][0].as_py())
    np.testing.assert_array_equal(w0[: min(64, len(s0))], s0[:64])


@pytest.mark.usefixtures("ray_session")
def test_incremental_exact_dedup_matches_scalar_oracle(tmp_path):
    """Append-only ingest: a new batch deduped against a PERSISTED
    index (parquet round-trip) without touching old text. Covers: dup
    of index, dup within new only (keeper = min new id, not an index
    id), unique newcomer, dup of BOTH index and new, and a second
    increment against the index built from the first."""
    import pyarrow.parquet as pq

    from engine.dedupe import exact_dedup_index, incremental_exact_dedup

    old = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["alpha", "beta", "gamma", "alpha"]),
        }
    )
    index = exact_dedup_index(rd.from_arrow(old).repartition(2), num_partitions=4)
    idx_df = index.to_pandas()
    assert len(idx_df) == 3  # alpha (keeper 0), beta, gamma
    # persistence round-trip: the index is state between increments
    pq.write_table(pa.Table.from_pandas(idx_df), str(tmp_path / "index.parquet"))
    index2 = rd.read_parquet(str(tmp_path / "index.parquet"))

    new = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "text": pa.array(["alpha", "delta", "delta", "epsilon", "beta"]),
        }
    )
    v = (
        incremental_exact_dedup(
            rd.from_arrow(new).repartition(3), index2, num_partitions=4
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = {int(r.doc_id): (bool(r.keep), int(r.dup_of)) for r in v.itertuples()}
    assert got == {
        10: (False, 0),   # dup of index keeper 0 (alpha)
        11: (True, 11),   # first 'delta' in the corpus
        12: (False, 11),  # within-new dup: keeper is the new id 11
        13: (True, 13),   # unique newcomer
        14: (False, 1),   # dup of index keeper 1 (beta)
    }
    # second increment: index union the kept new docs' index
    kept = new.filter(pa.array([got[int(i)][0] for i in new["doc_id"].to_pylist()]))
    idx_next = pa.concat_tables(
        [
            pa.Table.from_pandas(idx_df, preserve_index=False),
            exact_dedup_index(rd.from_arrow(kept), num_partitions=2)
            .to_pandas()
            .pipe(pa.Table.from_pandas, preserve_index=False),
        ]
    )
    new2 = pa.table(
        {
            "doc_id": pa.array([20, 21], pa.int64()),
            "text": pa.array(["delta", "zeta"]),
        }
    )
    v2 = (
        incremental_exact_dedup(rd.from_arrow(new2), rd.from_arrow(idx_next))
        .to_pandas()
        .sort_values("doc_id")
    )
    got2 = {int(r.doc_id): (bool(r.keep), int(r.dup_of)) for r in v2.itertuples()}
    assert got2 == {20: (False, 11), 21: (True, 21)}


@pytest.mark.usefixtures("ray_session")
def test_corpus_diff_statuses_and_keepers():
    """Snapshot diff on digest indexes: added/removed/common statuses
    with each side's keeper id (-1 when absent); duplicate content
    within a snapshot resolves to its min id before diffing."""
    from engine.dedupe import corpus_diff, exact_dedup_index

    a = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["alpha", "beta", "gamma", "alpha"]),
        }
    )
    b = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array(["beta", "delta", "beta"]),
        }
    )
    d = (
        corpus_diff(
            exact_dedup_index(rd.from_arrow(a), num_partitions=4),
            exact_dedup_index(rd.from_arrow(b), num_partitions=4),
            num_partitions=4,
        )
        .to_pandas()
        .sort_values(["status", "id_a", "id_b"])
        .reset_index(drop=True)
    )
    got = {(r.status, int(r.id_a), int(r.id_b)) for r in d.itertuples()}
    assert got == {
        ("removed", 0, -1),   # alpha: min id 0 (dup 3 collapsed)
        ("removed", 2, -1),   # gamma
        ("common", 1, 10),    # beta: keepers on both sides
        ("added", -1, 11),    # delta
    }


def test_y4m_codec_exact():
    """YUV4MPEG2 encode/parse: header tags, FRAME markers, bit-exact
    luma round-trip, fps carried, chroma-format rejection."""
    from engine.multimodal import encode_y4m, parse_y4m

    rng = np.random.default_rng(5)
    frames = rng.integers(0, 256, (3, 4, 6), dtype=np.uint8)
    b = encode_y4m(frames, (25, 1))
    head = b[: b.index(b"\n")].decode()
    assert head.startswith("YUV4MPEG2") and "W6" in head and "H4" in head and "F25:1" in head
    assert b.count(b"FRAME\n") == 3
    back, num, den = parse_y4m(b)
    assert (num, den) == (25, 1)
    np.testing.assert_array_equal(back, frames)
    with pytest.raises(ValueError):
        parse_y4m(b"RIFF" + b[4:])
    with pytest.raises(ValueError):
        parse_y4m(b.replace(b"C420", b"C444", 1))


@pytest.mark.usefixtures("ray_session")
def test_decode_video_y4m_samples_real_frames():
    """DecodeVideo(y4m) explodes one row per every_ms tick with the
    REAL frame nearest that timestamp (verified against parse_y4m +
    hand-picked indices); the fake backend keeps the same schema."""
    from engine.multimodal import DecodeVideo, encode_y4m, parse_y4m

    rng = np.random.default_rng(9)
    frames = rng.integers(0, 256, (8, 8, 8), dtype=np.uint8)  # 8 fr @10fps
    payload = encode_y4m(frames, (10, 1))
    t = pa.table(
        {
            "media_id": pa.array([42], pa.int64()),
            "payload": pa.array([payload], pa.binary()),
            "duration_ms": pa.array([800], pa.int32()),
        }
    )
    out = (
        rd.from_arrow(t)
        .map_batches(
            DecodeVideo,
            fn_constructor_kwargs={"backend": "y4m", "every_ms": 250, "out_hw": (8, 8)},
            concurrency=1,
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("frame_ts_ms")
    )
    # 8 frames @10fps = 800ms; ticks at 0,250,500,750 -> frames 0,2,5,7
    assert list(out.frame_ts_ms) == [0, 250, 500, 750]
    dec, _, _ = parse_y4m(payload)
    for ts, fi in ((0, 0), (250, 2), (500, 5), (750, 7)):
        got = np.asarray(out.loc[out.frame_ts_ms == ts, "frame"].iloc[0]).reshape(8, 8)
        np.testing.assert_array_equal(got, dec[fi])
    # fake backend: same schema, rows follow duration_ms
    from engine.multimodal import make_fake_media_table

    fake = make_fake_media_table(3, fmt="raw")
    out2 = (
        rd.from_arrow(fake)
        .map_batches(
            DecodeVideo,
            fn_constructor_kwargs={"backend": "fake", "every_ms": 1000},
            concurrency=1,
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    assert set(out2.columns) == {"media_id", "frame_ts_ms", "frame"}
    assert len(out2) > 0


@pytest.mark.usefixtures("ray_session")
def test_media_auto_backend_sniffs_formats():
    """backend='auto' decodes a MIXED-format stream with one actor
    pool per modality, sniffing payload magic bytes: PPM+BMP pixels
    and WAV+AU samples recover exactly as the per-format backends."""
    from engine.multimodal import (
        DecodeAudio,
        encode_au,
        encode_bmp,
        encode_ppm,
        encode_wav,
    )

    rng = np.random.default_rng(3)
    pix = rng.integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
    t = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array([encode_ppm(pix[0]), encode_bmp(pix[1])], pa.binary()),
            "width": pa.array([-1, -1], pa.int32()),
            "height": pa.array([-1, -1], pa.int32()),
        }
    )
    out = (
        rd.from_arrow(t)
        .map_batches(
            DecodeImage,
            fn_constructor_kwargs={"backend": "auto", "out_hw": (8, 8)},
            concurrency=1,
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("media_id")
    )
    for i in range(2):
        got = np.asarray(out.pixels.iloc[i]).reshape(8, 8, 3)
        np.testing.assert_array_equal(got, pix[i])  # native size: NN is identity

    s = np.array([0.0, 0.25, -0.25, 0.5], dtype=np.float32)
    ta = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array([encode_wav(s, 16000), encode_au(s, 16000)], pa.binary()),
        }
    )
    out = (
        rd.from_arrow(ta)
        .map_batches(
            DecodeAudio,
            fn_constructor_kwargs={"backend": "auto", "n_samples": 4},
            concurrency=1,
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("media_id")
    )
    for i in range(2):
        np.testing.assert_array_equal(np.asarray(out.waveform.iloc[i]), s)


def test_frequency_cap_exact_and_deterministic(ray_session):
    """Per-key frequency cap: keeps exactly the cap smallest ids per
    key (domain rebalancing), matches a pandas brute oracle, keeps all
    original columns, and is block-layout-invariant."""
    from engine.analytics import frequency_cap

    rng = np.random.default_rng(7)
    keys = ["A"] * 50 + ["B"] * 10 + ["C"] * 10 + ["D"]  # C == cap, D < cap
    n = len(keys)
    ids = rng.permutation(10_000)[:n].astype(np.int64)
    df = pd.DataFrame(
        {"k": keys, "id": ids, "v": rng.integers(0, 1_000, n).astype(np.int64)}
    ).sample(frac=1.0, random_state=3)  # shuffled row order

    cap = 10
    exp = (
        df.sort_values(["k", "id"], kind="stable")
        .groupby("k", sort=False)
        .head(cap)
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert (exp.k == "A").sum() == cap and (exp.k == "D").sum() == 1

    results = []
    for nblocks in (1, 7):
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        got = (
            frequency_cap(ds.repartition(nblocks), "k", "id", cap=cap)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["k", "id", "v"]], exp[["k", "id", "v"]])
        results.append(got)
    pd.testing.assert_frame_equal(results[0], results[1])

    # cap >= group sizes keeps everything
    all_kept = frequency_cap(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)), "k", "id", cap=99
    )
    assert all_kept.count() == n


def test_winsorized_stats_brute_oracle(ray_session):
    """Winsorized grouped sums match a numpy brute oracle built on the
    exact quantile_disc rank rule (sorted[ceil(q*n)-1]), including a
    heavy-tailed group, a tiny group (n=1 -> lo==hi==the value), and
    ties at the clamp bounds; block-layout invariant."""
    from engine.analytics import winsorized_stats

    rng = np.random.default_rng(11)
    vals_a = np.concatenate(
        [rng.integers(0, 100, 200), [10_000, -5_000, 10_000]]  # outliers + tie
    ).astype(np.int64)
    vals_b = rng.integers(-50, 50, 7).astype(np.int64)
    df = pd.DataFrame(
        {
            "g": ["a"] * len(vals_a) + ["b"] * len(vals_b) + ["c"],
            "v": np.concatenate([vals_a, vals_b, [42]]),
        }
    ).sample(frac=1.0, random_state=5)

    def brute(v):
        v = np.sort(v)
        n = len(v)
        lo = v[max(0, int(np.ceil(0.05 * n)) - 1)]
        hi = v[max(0, int(np.ceil(0.95 * n)) - 1)]
        return n, lo, hi, int(np.clip(v, lo, hi).sum())

    exp = {
        k: brute(g["v"].to_numpy()) for k, g in df.groupby("g")
    }
    for nblocks in (1, 5):
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        got = winsorized_stats(ds.repartition(nblocks), "g", "v").to_pandas()
        assert len(got) == 3
        for _, r in got.iterrows():
            n, lo, hi, ws = exp[r["g"]]
            assert (r["n"], r["lo_v"], r["hi_v"], r["wsum_v"]) == (n, lo, hi, ws)
    assert exp["c"][1] == exp["c"][2] == 42  # n=1: lo == hi == value


def test_chunk_batch_matches_bruteforce():
    from engine.textops import chunk_batch

    size, stride = 5, 3
    docs = [
        (1, "a b c d e f g h i j"),          # 10 toks: chunks at 0,3,6 (partial)
        (2, "one two three"),                 # n <= size: one chunk
        (3, ""),                              # zero toks: no rows
        (4, "   "),                           # whitespace only: no rows
        (5, "x " * 5),                        # n == size exactly: one chunk
        (6, "t1 t2 t3 t4 t5 t6"),            # n = size+1: two chunks
        (7, "  lead and\ttrail  "),           # artifact tokens filtered
    ]
    batch = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs]),
        }
    )
    out = chunk_batch(batch, size=size, stride=stride)
    got = {
        (r["doc_id"], r["chunk_no"]): r
        for r in out.to_pylist()
    }

    expect = {}
    for doc_id, text in docs:
        toks = text.split()
        n = len(toks)
        if n == 0:
            continue
        k = 1 if n <= size else -(-(n - size) // stride) + 1
        for c in range(k):
            s, e = c * stride, min(c * stride + size, n)
            expect[(doc_id, c)] = {
                "tok_start": s,
                "n_toks": e - s,
                "chunk_text": " ".join(toks[s:e]),
            }
    assert set(got) == set(expect)
    for key, exp in expect.items():
        g = got[key]
        assert g["tok_start"] == exp["tok_start"], key
        assert g["n_toks"] == exp["n_toks"], key
        assert g["chunk_text"] == exp["chunk_text"], key
        assert g["chunk_chars"] == len(exp["chunk_text"]), key
    # overlap property: consecutive chunks of doc 1 share size-stride toks
    assert got[(1, 0)]["chunk_text"].split()[stride:] == got[(1, 1)][
        "chunk_text"
    ].split()[: size - stride]


def test_chunk_docs_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["chunk_docs"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
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


def test_token_budget_select_brute_oracle(ray_session):
    import ray

    from engine.analytics import token_budget_select

    rng = np.random.default_rng(7)
    n = 400
    keys = rng.choice(["a", "b", "c", "hot"], size=n, p=[0.2, 0.2, 0.1, 0.5])
    ids = np.arange(n, dtype=np.int64)
    order = rng.integers(0, 50, size=n).astype(np.int64)  # many ties
    w = rng.integers(0, 40, size=n).astype(np.int64)  # includes zero weights
    w[keys == "c"] = 10_000  # first-ranked row heavier than budget: all dropped
    keys[0], order[0], w[0] = "a", 1_000, 0  # zero-weight top rank of "a"
    budget = 300
    tbl = pa.table({"k": keys, "id": ids, "o": order, "w": w})

    def brute():
        kept = {}
        for key in set(keys):
            rows = [(int(order[i]), int(i)) for i in ids[keys == key]]
            rows.sort(key=lambda t: (-t[0], t[1]))
            cum = 0
            for oo, i in rows:
                cum += int(w[i])
                if cum <= budget:
                    kept[i] = cum
        return kept

    expect = brute()

    for blocks in (1, 7, 64):  # block-layout invariance
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        win = token_budget_select(
            ds, key="k", id_col="id", weight_col="w", budget=budget,
            order_col="o", num_partitions=4, return_winners=True,
        ).to_pandas()
        got = dict(zip(win["id"].astype(int), win["cum_w"].astype(int)))
        assert got == expect, f"blocks={blocks}"
        # kept-rows path: same membership, original columns
        kept = token_budget_select(
            ds, key="k", id_col="id", weight_col="w", budget=budget,
            order_col="o", num_partitions=4,
        ).to_pandas()
        assert sorted(kept["id"].astype(int)) == sorted(expect)
        assert sorted(kept.columns) == ["id", "k", "o", "w"]

    # no order_col: rank by id alone
    ds = ray.data.from_arrow(tbl).repartition(5)
    win = token_budget_select(
        ds, key="k", id_col="id", weight_col="w", budget=budget,
        num_partitions=4, return_winners=True,
    ).to_pandas()
    exp2 = {}
    for key in set(keys):
        cum = 0
        for i in ids[keys == key]:
            cum += int(w[i])
            if cum <= budget:
                exp2[int(i)] = cum
    assert dict(zip(win["id"].astype(int), win["cum_w"].astype(int))) == exp2

    # budget=0 keeps only zero-weight rows
    win0 = token_budget_select(
        ds, key="k", id_col="id", weight_col="w", budget=0,
        order_col="o", num_partitions=4, return_winners=True,
    ).to_pandas()
    zero_expect = set()
    for key in set(keys):
        rows = sorted(
            [(int(order[i]), int(i)) for i in ids[keys == key]],
            key=lambda t: (-t[0], t[1]),
        )
        for oo, i in rows:
            if int(w[i]) != 0:
                break
            zero_expect.add(i)
    assert zero_expect  # the planted zero-weight top-ranked row
    assert set(win0["id"].astype(int)) == zero_expect


def test_budget_select_docs_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["budget_select_docs"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
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


def _brute_substr_dedup(docs, L):
    """Reference ExactSubstr rule: positions covered by any
    non-canonical duplicated L-window are removed."""
    wins = {}
    toks = {d: t.split() for d, t in docs}
    for d, _ in docs:
        ts = toks[d]
        for s in range(max(0, len(ts) - L + 1)):
            wins.setdefault(" ".join(ts[s : s + L]), []).append((d, s))
    removed = {d: set() for d, _ in docs}
    for occs in wins.values():
        if len(occs) < 2:
            continue
        occs = sorted(occs)
        for d, s in occs[1:]:
            removed[d].update(range(s, s + L))
    out = {}
    for d, _ in docs:
        ts = toks[d]
        rm = {p for p in removed[d] if p < len(ts)}
        kept = [t for p, t in enumerate(ts) if p not in rm]
        out[d] = (len(ts), len(rm), " ".join(kept))
    return out


def test_exact_substring_dedup_matches_bruteforce(ray_session):
    import ray

    from engine.dedupe import exact_substring_dedup

    L = 4
    boiler = "one two three four"            # shared 4-token span
    docs = [
        (1, f"alpha beta {boiler} gamma delta"),          # canonical (min doc)
        (2, f"x {boiler} y z w"),                          # dup: removed here
        (3, "p q r"),                                      # shorter than L
        (4, "rep rep rep rep rep rep rep rep"),            # self-repetition
        (5, f"{boiler} {boiler} tail1 tail2"),             # dup covers canonical-ish overlaps
        (6, "unique tokens only here nothing shared at all"),
        (7, ""),                                           # empty doc
    ]
    expect = _brute_substr_dedup(docs, L)
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs]),
        }
    )
    for blocks in (1, 3, 7):
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        got = exact_substring_dedup(ds, L=L, num_partitions=4).to_pandas()
        assert len(got) == len(docs), blocks
        for r in got.itertuples():
            n, n_rm, kept = expect[r.doc_id]
            assert r.n_toks == n, (blocks, r.doc_id)
            assert r.n_removed == n_rm, (blocks, r.doc_id)
            assert r.kept_text == kept, (blocks, r.doc_id)
            assert r.kept_chars == len(kept), (blocks, r.doc_id)
    # sanity on the planted structure (rule-level, not just parity):
    e = {d: expect[d] for d, _ in docs}
    assert e[1][1] == 0                      # canonical occurrence untouched
    assert e[2][1] == L                      # doc 2 lost exactly the span
    assert e[3][1] == 0 and e[7][1] == 0     # short + empty docs untouched
    assert e[4][1] > 0                       # self-repetition trimmed


def test_substr_dedup_docs_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["substr_dedup_docs"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 0
    assert ray_df["n_removed"].sum() > 0  # natural dups exist at L=15
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


def test_decontam_docs_query_matches_duckdb_oracle(ray_session):
    import duckdb

    from engine.queries import REGISTRY

    fn, sql = REGISTRY["decontam_docs"]
    sf = "/root/testdata/sf0.001"
    ray_df = fn(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    sql_df = con.sql(sql).df()
    assert len(ray_df) == len(sql_df) > 0
    # meaningful split: some contaminated, some clean
    assert 0 < int(ray_df.contaminated.sum()) < len(ray_df)
    cols = sorted(ray_df.columns)
    assert cols == sorted(sql_df.columns)
    a = ray_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    b = sql_df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert av.dtype.kind == bv.dtype.kind, (c, av.dtype, bv.dtype)
        assert (av == bv).all(), c


# ------------- hashed linear classifier scoring (X41, round 4)


def _scalar_fnv(tok: bytes) -> int:
    h = 14695981039346656037
    for byte in tok:
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


@pytest.mark.usefixtures("ray_session")
def test_classifier_scores_matches_scalar_oracle():
    from engine.textops import CLF_BUCKETS, classifier_scores, clf_default_weights

    docs = ["the quick brown fox", "", "a a a", "zzz 123 !!", "one-token", "  pad  "]
    t = pa.table(
        {"doc_id": pa.array(np.arange(len(docs), dtype=np.int64)), "text": pa.array(docs)}
    )
    out = (
        classifier_scores(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    w = clf_default_weights()
    for i, d in enumerate(docs):
        toks = d.split()
        score = sum(int(w[_scalar_fnv(x.encode()) % CLF_BUCKETS]) for x in toks)
        assert out.n_toks[i] == len(toks)
        assert out.clf_score[i] == score
        assert bool(out.clf_label[i]) == (score > 0)


@pytest.mark.usefixtures("ray_session")
def test_classifier_custom_weights_broadcast_once():
    from engine.textops import CLF_BUCKETS, classifier_scores

    t = pa.table(
        {"doc_id": pa.array([0, 1], type=pa.int64()), "text": pa.array(["a b c", ""])}
    )
    w = np.ones(CLF_BUCKETS, dtype=np.int64)  # all-ones -> score == n_toks
    out = (
        classifier_scores(rd.from_arrow(t), weights=w)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.clf_score.tolist() == [3, 0]
    assert out.clf_label.tolist() == [True, False]


def test_sig_index_pack_roundtrip():
    """Binary-blob packing of uint64 matrices (the signature index's
    storage layout) is exact, including on sliced arrays (nonzero
    Arrow offsets share the parent's offsets buffer)."""
    from engine.dedupe import _pack_u64_rows, _unpack_u64_rows

    m = np.random.default_rng(3).integers(0, 1 << 63, (9, 16)).astype(np.uint64)
    arr = _pack_u64_rows(m)
    assert (_unpack_u64_rows(arr, 16) == m).all()
    assert (_unpack_u64_rows(arr.slice(2, 5), 16) == m[2:7]).all()
    with pytest.raises(ValueError):
        _unpack_u64_rows(arr, 8)


@pytest.mark.usefixtures("ray_session")
def test_minhash_index_cache_sees_same_second_rewrite(tmp_path, monkeypatch):
    """Rewriting documents.parquet within the same second must give a
    fresh index, not the cached one of the old corpus."""
    import os

    import pyarrow.parquet as pq

    import engine.queries as q

    monkeypatch.setattr(q, "MINHASH_INDEX_CACHE", str(tmp_path / "cache"))
    sf = tmp_path / "sf"
    sf.mkdir()
    src = sf / "documents.parquet"
    second = 1_700_000_000 * 10**9

    def corpus(ids, ns):
        t = pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array([f"document {i} has some words" for i in ids])}
        )
        pq.write_table(t, src)
        os.utime(src, ns=(second, second + ns))
        return rd.from_arrow(t)

    a = q.minhash_index_cached(str(sf), corpus(np.arange(0, 6), 100))
    assert sorted(a.to_pandas()["keep_id"]) == list(range(0, 6))
    b = q.minhash_index_cached(str(sf), corpus(np.arange(10, 16), 900))
    assert sorted(b.to_pandas()["keep_id"]) == list(range(10, 16))
    # an unchanged corpus reads the cached index
    c = q.minhash_index_cached(str(sf), rd.from_arrow(pa.table({"doc_id": [99], "text": ["x"]})))
    assert sorted(c.to_pandas()["keep_id"]) == list(range(10, 16))


def test_incremental_minhash_matches_scalar_oracle(tmp_path):
    """X50 steady-state crawl ingest: a new batch near-dup'd against a
    PERSISTED signature index (parquet round-trip) without re-reading
    old text. Verdict-for-verdict against a per-doc scalar oracle that
    recomputes signatures, band collisions and the integer estimate
    rule directly."""
    import pyarrow.parquet as pq

    from engine.dedupe import (
        _band_hashes,
        _sig_matrix,
        incremental_minhash_dedup,
        minhash_index,
    )

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    old_texts = [" ".join(rng.choice(vocab, 40)) for _ in range(120)]
    old = pa.table(
        {"doc_id": pa.array(np.arange(120, dtype=np.int64)), "text": pa.array(old_texts)}
    )
    # exact re-carries, near-dups (2-token tail), fresh docs
    new_texts = (
        old_texts[:40]
        + [t + " zz qq" for t in old_texts[40:70]]
        + [" ".join(rng.choice(vocab, 40)) for _ in range(30)]
    )
    new_ids = np.arange(1000, 1100, dtype=np.int64)
    new = pa.table({"doc_id": pa.array(new_ids), "text": pa.array(new_texts)})

    idx = minhash_index(rd.from_arrow(old).repartition(3))
    pq.write_table(
        pa.Table.from_pandas(idx.to_pandas(), preserve_index=False),
        str(tmp_path / "sig_index.parquet"),
    )
    idx2 = rd.read_parquet(str(tmp_path / "sig_index.parquet"))

    res = (
        incremental_minhash_dedup(
            rd.from_arrow(new).repartition(4), idx2, num_partitions=8
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(res) == 100

    sig_old = _sig_matrix(old_texts)
    sig_new = _sig_matrix(new_texts)
    bh_old = _band_hashes(sig_old, 16)
    bh_new = _band_hashes(sig_new, 16)
    exp_keep, exp_dup = [], []
    for i in range(100):
        cands = [
            j
            for j in range(120)
            if any(bh_new[i, b] == bh_old[j, b] for b in range(16))
        ]
        ver = [j for j in cands if 2 * int((sig_new[i] == sig_old[j]).sum()) >= 64]
        exp_keep.append(len(ver) == 0)
        exp_dup.append(min(ver) if ver else int(new_ids[i]))
    assert (res["keep"].to_numpy() == np.array(exp_keep)).all()
    assert (res["dup_of"].to_numpy() == np.array(exp_dup)).all()
    # the planted classes actually exercise both verdicts
    assert not res["keep"][:40].any()  # exact re-carries are dups
    assert res["keep"][70:].all()  # fresh docs are kept


@pytest.mark.usefixtures("ray_session")
def test_callable_codec_injection_seam():
    """r5 (VERDICT item 7): backend='callable' is the drop-in point
    for a real codec (Pillow/soundfile/pyav) without touching pipeline
    code. Wire the engine's own from-spec parsers through it as 'user'
    codecs and assert bit-identity with the native backends through
    the Ray actor-pool plumbing; plus the seam's validation errors."""
    import ray.data as rd

    from engine.multimodal import (
        DecodeAudio,
        DecodeImage,
        DecodeVideo,
        make_fake_media_table,
        parse_ppm,
        parse_wav,
        parse_y4m,
    )

    imgs_t = make_fake_media_table(12, fmt="ppm")

    def run_img(**kw):
        return (
            rd.from_arrow(imgs_t)
            .map_batches(
                DecodeImage,
                fn_constructor_kwargs=dict(out_hw=(8, 8), **kw),
                batch_format="pyarrow",
                batch_size=6,
                concurrency=(1, 2),
            )
            .to_pandas()
            .sort_values("media_id")
            .reset_index(drop=True)
        )

    native = run_img(backend="ppm")
    injected = run_img(backend="callable", decode_fn=parse_ppm)
    pd.testing.assert_frame_equal(native, injected)

    auds_t = make_fake_media_table(12, seed=11, fmt="wav")

    def run_aud(**kw):
        return (
            rd.from_arrow(auds_t)
            .map_batches(
                DecodeAudio,
                fn_constructor_kwargs=dict(n_samples=256, **kw),
                batch_format="pyarrow",
                batch_size=6,
                concurrency=(1, 2),
            )
            .to_pandas()
            .sort_values("media_id")
            .reset_index(drop=True)
        )

    a_native = run_aud(backend="wav")
    a_injected = run_aud(backend="callable", decode_fn=parse_wav)
    pd.testing.assert_frame_equal(a_native, a_injected)

    vids_t = make_fake_media_table(6, seed=19, fmt="y4m")
    for vkw in (dict(backend="y4m"),
                dict(backend="callable", decode_fn=parse_y4m)):
        out = (
            rd.from_arrow(vids_t)
            .map_batches(
                DecodeVideo,
                fn_constructor_kwargs=dict(every_ms=500, out_hw=(4, 4), **vkw),
                batch_format="pyarrow",
                batch_size=3,
                concurrency=(1, 2),
            )
            .to_pandas()
            .sort_values(["media_id", "frame_ts_ms"])
            .reset_index(drop=True)
        )
        if vkw["backend"] == "y4m":
            v_native = out
        else:
            pd.testing.assert_frame_equal(v_native, out)

    # seam validation: no fn, and a wrong-shape user fn, both fail loudly
    with pytest.raises(ValueError, match="decode_fn"):
        DecodeImage(backend="callable")
    bad = DecodeImage(backend="callable",
                      decode_fn=lambda p: np.zeros((4, 4), np.uint8))
    with pytest.raises(ValueError, match="uint8"):
        bad(imgs_t.slice(0, 2))
