import contextlib
import dataclasses
import errno
import functools
import json
import math
import mmap
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchpred import cli, corpus, crossing, diffparse, embed, synth, worker
from patchpred.embed import EmbedderConfig
from patchpred.errors import EmbeddingError


def test_cosine_identity_orthogonal_and_closed_form():
    assert embed.cosine([1, 0], [1, 0]) == pytest.approx(1.0)
    assert embed.cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    # closed form: cos([1,1],[1,0]) = 1/sqrt(2)
    assert embed.cosine([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_cosine_zero_norm_maps_to_zero():
    assert embed.cosine([0, 0], [1, 2]) == 0.0
    assert embed.is_zero_norm([0.0, 0.0])
    assert not embed.is_zero_norm([0.0, 1e-12])


def test_a_nonzero_vector_whose_norm_underflows_is_not_zero_norm():
    tiny = [1e-200, 0.0, 0.0]
    assert float(np.linalg.norm(tiny)) == 0.0
    assert not embed.is_zero_norm(tiny)
    assert embed.cosine(tiny, tiny) == 1.0
    assert embed.cosine(tiny, [-5e-324, 0.0, 0.0]) == -1.0
    assert embed.cosine(tiny, [0.0, 1e-200, 0.0]) == 0.0
    # A true zero vector is still zero-norm, and its cosine with anything is 0.
    assert embed.is_zero_norm([0.0, -0.0, 0.0])
    assert embed.cosine([0.0, 0.0, 0.0], tiny) == embed.cosine(tiny, [0.0, 0.0, 0.0]) == 0.0


def test_a_normal_pair_keeps_its_cosine_bits():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=64), rng.normal(size=64)
    assert embed.cosine(a, b).hex() == "0x1.f11a7eb2f2a42p-7"
    assert embed.cosine([3.0, 4.0], [4.0, 3.0]).hex() == "0x1.eb851eb851eb8p-1"
    assert embed.cosine(a, a) == 1.0


def test_cosine_length_mismatch_errors():
    with pytest.raises(EmbeddingError):
        embed.cosine([1, 2], [1, 2, 3])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(1e-3, 1e3))
def test_cosine_scale_invariance(vec, c):
    v = np.array(vec)
    if np.linalg.norm(v) < 1e-100:  # below this, products underflow to denormals
        return
    assert embed.cosine(v, c * v) == pytest.approx(1.0, abs=1e-9)


def test_euclidean_similarity_values():
    v = np.array([2.0, -1.0])
    assert embed.euclidean_similarity(v, v) == pytest.approx(1.0)
    # distance 5 by Pythagoras -> 1/6
    assert embed.euclidean_similarity([0, 0], [3, 4]) == pytest.approx(1 / 6, abs=1e-12)
    assert embed.euclidean_similarity([1], [0]) == pytest.approx(0.5)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=6),
       st.lists(st.floats(-100, 100), min_size=1, max_size=6))
def test_euclidean_similarity_symmetric_and_bounded(a, b):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    s = embed.euclidean_similarity(a, b)
    assert s == embed.euclidean_similarity(b, a)
    assert 0 < s <= 1
    if np.all(a == b):
        assert s == 1.0
    if s == 1.0:  # 1/(1+d) rounds to 1.0 only for vanishing distances
        assert np.allclose(a, b, atol=1e-12)


def _cluster_docs(n_docs=100, seed=0):
    rng = np.random.default_rng(seed)
    vocab_a = [f"alpha{i}" for i in range(12)]
    vocab_b = [f"beta{i}" for i in range(12)]
    docs, membership = [], []
    for d in range(n_docs):
        words = vocab_a if d % 2 == 0 else vocab_b
        docs.append(list(rng.choice(words, size=8)))
        membership.append(d % 2)
    return docs, membership


def test_two_disjoint_documents_are_less_similar_than_self():
    docs = [["red", "green", "blue", "red"], ["cat", "dog", "bird", "cat"]]
    model = embed.train_embedder(docs, EmbedderConfig(n=4, epochs=50, seed=1))
    d1, d2 = model.doc_vectors
    assert embed.cosine(d1, d2) < embed.cosine(d1, d1) == pytest.approx(1.0)


def test_disjoint_clusters_separate_after_training():
    docs, membership = _cluster_docs()
    model = embed.train_embedder(docs, EmbedderConfig(n=16, epochs=40, seed=2))
    vecs = model.doc_vectors
    within, across = [], []
    for i in range(0, len(docs), 7):
        for j in range(i + 1, len(docs), 5):
            sim = embed.cosine(vecs[i], vecs[j])
            (within if membership[i] == membership[j] else across).append(sim)
    assert np.mean(within) > np.mean(across)


def test_training_reports_nonincreasing_loss():
    docs, _ = _cluster_docs(40)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=30, seed=5))
    rep = model.training_report
    assert rep["final_loss"] <= rep["initial_loss"]


def test_empty_corpus_errors():
    with pytest.raises(EmbeddingError):
        embed.train_embedder([], EmbedderConfig(n=4))
    with pytest.raises(EmbeddingError):
        embed.train_embedder([["solo"]], EmbedderConfig(n=4))  # one-token vocabulary


def test_min_token_count_filters_vocabulary():
    docs = [["a", "a", "b", "b"], ["a", "b", "rare"]]
    model = embed.train_embedder(docs, EmbedderConfig(n=4, epochs=5, min_token_count=2, seed=0))
    assert set(model.vocabulary) == {"a", "b"}


def test_infer_empty_or_oov_returns_zero_vector_with_flag():
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=10, seed=3))
    vec, flag = embed.infer_vector(model, [])
    assert flag and np.all(vec == 0)
    vec2, flag2 = embed.infer_vector(model, ["never-seen", "also-new"])
    assert flag2 and np.all(vec2 == 0)


def test_infer_is_deterministic_for_same_seed():
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=20, seed=3))
    v1, _ = embed.infer_vector(model, docs[0])
    v2, _ = embed.infer_vector(model, docs[0])
    assert _same_bits(v1, v2)


def test_inferring_training_document_lands_near_its_trained_vector():
    docs, _ = _cluster_docs(40)
    model = embed.train_embedder(docs, EmbedderConfig(n=16, epochs=60, seed=4))
    hits = 0
    for d in range(0, 40, 10):
        inferred, flag = embed.infer_vector(model, docs[d])
        assert not flag
        if embed.cosine(inferred, model.doc_vectors[d]) > 0.5:
            hits += 1
    assert hits == 4


def test_training_deterministic_under_seed():
    docs, _ = _cluster_docs(20)
    m1 = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=15, seed=9))
    m2 = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=15, seed=9))
    assert _same_bits(m1.word_matrix, m2.word_matrix)
    assert _same_bits(m1.doc_vectors, m2.doc_vectors)


def test_model_save_load_round_trip(tmp_path):
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=10, seed=1))
    path = tmp_path / "model.json"
    embed.save_model(model, path)
    loaded = embed.load_model(path)
    v1, _ = embed.infer_vector(model, docs[3])
    v2, _ = embed.infer_vector(loaded, docs[3])
    assert _same_bits(v1, v2)
    embed.save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_model_rejects_unknown_format_version(tmp_path):
    docs, _ = _cluster_docs(20)
    path = tmp_path / "model.json"
    embed.save_model(embed.train_embedder(docs, EmbedderConfig(n=8, epochs=2, seed=1)), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(EmbeddingError, match="format version 99"):
        embed.load_model(path)


def test_load_model_rejects_malformed_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "ParagraphVectorModel",')
    with pytest.raises(EmbeddingError, match="not a valid"):
        embed.load_model(path)


def test_import_embeddings_happy_path(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(
        json.dumps({"patch_id": "p1", "buggy_vec": [1, 2, 3, 4], "patched_vec": [0, 0, 0, 1]}) + "\n"
        + json.dumps({"patch_id": "p2", "buggy_vec": [1, 1, 1, 1], "patched_vec": [2, 2, 2, 2]}) + "\n"
    )
    pairs = embed.import_embeddings(path)
    assert len(pairs) == 2
    assert all(p.n == 4 for p in pairs)


def test_import_embeddings_length_mismatch_names_patch(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(
        json.dumps({"patch_id": "p1", "buggy_vec": [1, 2, 3, 4], "patched_vec": [1, 2, 3, 4]}) + "\n"
        + json.dumps({"patch_id": "p2", "buggy_vec": [1, 2, 3, 4, 5], "patched_vec": [1, 2, 3, 4, 5]}) + "\n"
    )
    with pytest.raises(EmbeddingError, match="p2"):
        embed.import_embeddings(path)


def test_import_embeddings_non_numeric_errors(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(json.dumps({"patch_id": "p1", "buggy_vec": [1, "x"], "patched_vec": [1, 2]}) + "\n")
    with pytest.raises(EmbeddingError):
        embed.import_embeddings(path)


def test_import_embeddings_non_finite_errors(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"patch_id": "p1", "buggy_vec": [1, NaN], "patched_vec": [1, 2]}\n')
    with pytest.raises(EmbeddingError, match="non-finite|Expecting"):
        embed.import_embeddings(path)


OVERFLOWS = "patch 'p2': the sums of squares of buggy_vec, patched_vec and their difference must be finite"


@pytest.mark.parametrize("edit, message", [
    ({"patch_id": None}, "patch_id must be a non-empty string, not None"),
    ({"patch_id": ""}, "patch_id must be a non-empty string, not ''"),
    ({"patch_id": 7}, "patch_id must be a non-empty string, not 7"),
    ({"buggy_vec": [1.0, True]}, "malformed record: buggy_vec must be finite numbers of shape (2,): got true"),
    ({"patched_vec": [False, 0.0]}, "malformed record: patched_vec must be finite numbers of shape (2,): got false"),
    ({"buggy_vec": [1.0, 10**400]},
     "malformed record: buggy_vec must be finite numbers of shape (2,): got an integer too large for a float"),
    ({"buggy_vec": [1e200, 2.0], "patched_vec": [1e200, 0.0]}, OVERFLOWS),
    ({"patched_vec": [-1e200, 0.0]}, OVERFLOWS),
    # Each vector's sum of squares is finite, their difference's is not.
    ({"buggy_vec": [1.2e154, 0.0], "patched_vec": [-1.2e154, 0.0]}, OVERFLOWS),
], ids=["id-null", "id-empty", "id-number", "entry-true", "entry-false", "entry-huge-int", "squares-both",
        "squares-patched", "squares-difference"])
def test_import_embeddings_refuses_a_bad_patch_id_or_entry_naming_file_and_line(tmp_path, capsys, edit, message):
    path = tmp_path / "e.jsonl"
    good = {"patch_id": "p1", "buggy_vec": [1.0, 2.0], "patched_vec": [0.5, 0.0]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "patch_id": "p2", **edit}) + "\n")
    assert cli.main(["import-embeddings", "--embeddings", str(path), "--out", str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error[embed]: {path} line 2: ")
    with pytest.raises(EmbeddingError, match=f"line 2: .*{re.escape(message)}"):
        embed.import_embeddings(path)
    assert not (tmp_path / "out.jsonl").exists()


def test_imported_vectors_inside_the_bound_cross_to_finite_values(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(json.dumps({"patch_id": "p1", "buggy_vec": [1.2e154, -1.0], "patched_vec": [1.2e154, 1.0]}) + "\n"
                    + json.dumps({"patch_id": "p2", "buggy_vec": [1e-200, 0.0], "patched_vec": [1e-200, 0.0]}) + "\n")
    for pair in embed.import_embeddings(path):
        values = crossing.cross(pair).values
        assert np.isfinite(values).all()
        assert values[-2] == pytest.approx(1.0)  # the cosine


def test_export_import_round_trip(tmp_path):
    pairs = [embed.EmbeddingPair("p1", np.array([0.5, -1.5]), np.array([2.0, 0.25]), "x", 2)]
    path = tmp_path / "e.jsonl"
    embed.export_embeddings(pairs, path)
    back = embed.import_embeddings(path)
    assert np.array_equal(back[0].buggy_vec, pairs[0].buggy_vec)
    assert np.array_equal(back[0].patched_vec, pairs[0].patched_vec)


# --- byte identity against the straightforward loops -------------------------
# A frozen copy of the embedder's original per-document training step and
# per-epoch inference loop: two row-wise scatter-adds and one negative draw
# per document per epoch. The optimized loops must reproduce it bit for bit.

def _same_bits(a, b) -> bool:
    """Equal arrays, told apart by the sign of zero and the NaN too, which
    np.array_equal would not."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _ref_sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-np.clip(x, -8.0, 8.0)))
    out[x > 8.0] = 1.0
    out[x < -8.0] = 0.0
    return out


def test_sigmoid_without_a_clip_has_the_bits_of_the_clipped_reference():
    edges = [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 708.0, 710.0, np.inf]
    x = np.array(edges + [-v for v in edges] + [np.nan])
    with np.errstate(over="ignore", invalid="ignore"):
        got = embed._sigmoid_inplace(np.negative(x))
    assert _same_bits(got, _ref_sigmoid(x))


def _ref_doc_step(doc_vec, word_matrix, pos_idx, neg_idx, lr, freeze_words=False):
    pos_vecs = word_matrix[pos_idx]
    neg_flat = neg_idx.reshape(-1)
    neg_vecs = word_matrix[neg_flat]
    pos_sig = _ref_sigmoid(pos_vecs @ doc_vec)
    neg_sig = _ref_sigmoid(neg_vecs @ doc_vec)
    loss = float(-np.sum(np.log(np.clip(pos_sig, 1e-12, None)))
                 - np.sum(np.log(np.clip(1.0 - neg_sig, 1e-12, None))))
    grad_doc = (pos_sig - 1.0) @ pos_vecs + neg_sig @ neg_vecs
    if not freeze_words:
        np.add.at(word_matrix, pos_idx, -lr * np.outer(pos_sig - 1.0, doc_vec))
        np.add.at(word_matrix, neg_flat, -lr * np.outer(neg_sig, doc_vec))
    doc_vec -= lr * grad_doc
    return loss


def _ref_lr(config, epoch):
    frac = epoch / max(config.epochs - 1, 1)
    return config.learning_rate * (1.0 - 0.9 * frac)


def _ref_negatives(rng, noise_cdf, shape):
    return np.searchsorted(noise_cdf, rng.random(shape)).astype(np.intp)


def _ref_train(documents, config):
    vocab, freq = embed._build_vocab(documents, config.min_token_count)
    noise_cdf = embed._noise_cumulative(freq)
    indexed = [np.array([vocab[t] for t in doc if t in vocab], dtype=np.intp) for doc in documents]
    rng = np.random.default_rng(config.seed)
    doc_vectors = rng.uniform(-0.5 / config.n, 0.5 / config.n, size=(len(documents), config.n))
    word_matrix = np.zeros((len(vocab), config.n), dtype=float)
    losses = []
    for epoch in range(config.epochs):
        total, pairs = 0.0, 0
        for d, pos_idx in enumerate(indexed):
            if len(pos_idx) == 0:
                continue
            neg_idx = _ref_negatives(rng, noise_cdf, (len(pos_idx), config.negative_samples))
            total += _ref_doc_step(doc_vectors[d], word_matrix, pos_idx, neg_idx, _ref_lr(config, epoch))
            pairs += len(pos_idx)
        losses.append(total / max(pairs, 1))
        if not math.isfinite(losses[-1]):
            raise EmbeddingError(f"non-finite training loss at epoch {epoch}; lower the learning rate")
    report = {"initial_loss": losses[0], "final_loss": losses[-1], "epochs": config.epochs,
              "vocabulary_size": len(vocab), "documents": len(documents)}
    return word_matrix, doc_vectors, report


def _ref_infer(model, tokens):
    config = model.config
    pos_idx = np.array([model.vocabulary[t] for t in tokens if t in model.vocabulary], dtype=np.intp)
    rng = np.random.default_rng(config.seed)
    vec = rng.uniform(-0.5 / config.n, 0.5 / config.n, size=config.n)
    noise_cdf = embed._noise_cumulative(model.token_counts)
    for epoch in range(config.epochs):
        neg_idx = _ref_negatives(rng, noise_cdf, (len(pos_idx), config.negative_samples))
        _ref_doc_step(vec, model.word_matrix, pos_idx, neg_idx, _ref_lr(config, epoch), freeze_words=True)
    return vec


def _identity_corpus():
    docs, _ = _cluster_docs(24, seed=7)
    docs.append(["alpha0"] * 9 + ["beta1"] * 4)  # repeated tokens
    docs.append(["rare-a", "rare-b"])  # emptied when min_token_count >= 2
    return docs


# n=7 is odd, so training scatters single floats instead of pairs; n=64 is
# the default. The n=12 cases keep the ids they had before n was a parameter.
_IDENTITY_CASES = [pytest.param(k, epochs, min_count, n, id="-".join(
                       map(str, (min_count, epochs, k) if n == 12 else (n, min_count, epochs, k))))
                   for n in (12, 7, 64) for min_count in (1, 2) for epochs in (1, 7) for k in (0, 1, 5)]


@pytest.mark.parametrize("negative_samples, epochs, min_token_count, n", _IDENTITY_CASES)
def test_embedder_matches_reference_loops_bit_for_bit(negative_samples, epochs, min_token_count, n):
    docs = _identity_corpus()
    config = EmbedderConfig(n=n, epochs=epochs, negative_samples=negative_samples,
                            min_token_count=min_token_count, seed=3)
    model = embed.train_embedder(docs, config)
    word_matrix, doc_vectors, report = _ref_train(docs, config)
    assert _same_bits(model.word_matrix, word_matrix)
    assert _same_bits(model.doc_vectors, doc_vectors)
    assert model.training_report == report
    probes = docs[:3] + [docs[-2], ["alpha3", "never-seen", "beta5", "alpha3", "also-new"], ["alpha0"]]
    for tokens in probes:
        vec, flag = embed.infer_vector(model, tokens)
        assert not flag
        assert _same_bits(vec, _ref_infer(model, tokens))


# Token counts for the guide table: random; one dominant token whose CDF
# step spans many buckets, leaving the rest in one bucket near 1; repeated.
_NOISE_COUNTS = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=2, max_size=300),
    st.builds(lambda top, rest: [top] + rest, st.integers(10**6, 10**9),
              st.lists(st.integers(1, 3), min_size=1, max_size=300)),
    st.builds(lambda count, size: [count] * size, st.integers(1, 50), st.integers(2, 300)),
)


@settings(max_examples=200, deadline=None)
@given(counts=_NOISE_COUNTS, keys=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_guide_search_gives_the_searchsorted_index(counts, keys):
    table = embed._NoiseTable(np.array(counts, dtype=float))
    cdf = table.cdf
    buckets = len(table.guide)
    assert buckets >= 4 * len(cdf) and buckets & (buckets - 1) == 0
    # Every CDF entry, both its float neighbours, and the extreme keys.
    probes = np.concatenate([[0.0, 1 - 2**-53], keys, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    probes = probes[probes < 1.0]
    assert np.array_equal(table.search(probes), np.searchsorted(cdf, probes))
    assert table.search(probes[:0]).shape == (0,)


@pytest.mark.parametrize("shape", [0, (7, 0), 11, (3, 5), (embed._DRAW_BLOCK + 5, 2)])
def test_negative_draw_is_one_searchsorted_stream(shape):
    table = embed._NoiseTable(np.array([40.0, 9.0, 9.0, 3.0, 1.0, 1.0]))
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    ids = table.sample(rng, shape)
    expected = np.searchsorted(table.cdf, ref_rng.random(shape))
    assert ids.dtype == np.intp and ids.shape == expected.shape
    assert np.array_equal(ids, expected)
    assert rng.random() == ref_rng.random()  # blocks drew the same stream


def test_noise_cdf_ends_at_one_so_no_key_draws_past_the_vocabulary():
    counts = np.array([31.0, 9.0])
    weights = counts**0.75
    unfixed = np.cumsum(weights / weights.sum())
    top = 1 - 2**-53  # the largest key rng.random gives
    assert unfixed[-1] < top and np.searchsorted(unfixed, top) == 2  # one past the vocabulary
    cdf = embed._noise_cumulative(counts)
    assert cdf[-1] == 1.0 and np.array_equal(cdf[:-1], unfixed[:-1])
    table = embed._NoiseTable(counts)
    assert table.search(np.array([top])).tolist() == [1]

    class TopKeys:
        def random(self, out):
            out.fill(top)
            return out

    assert table.sample(TopKeys(), (3, 2)).tolist() == [[1, 1]] * 3


@pytest.mark.parametrize("learning_rate", [1e10, 1e20])
def test_divergence_is_caught_at_the_reference_epoch(learning_rate):
    # Training computes the loss only in the reported epochs; the middle
    # ones must still stop at the first epoch whose loss is non-finite.
    docs = _identity_corpus()
    config = EmbedderConfig(n=12, epochs=12, learning_rate=learning_rate, seed=3)
    with pytest.raises(EmbeddingError, match="non-finite training loss") as ours:
        embed.train_embedder(docs, config)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EmbeddingError) as reference:
            _ref_train(docs, config)
    assert str(ours.value) == str(reference.value)
    epoch = int(str(ours.value).split("epoch ")[1].split(";")[0])
    assert 0 < epoch < config.epochs - 1


def test_training_never_returns_non_finite_vectors():
    # A last epoch that blows the weights up while every score stays finite
    # would give a model that load_model rejects.
    docs = _identity_corpus()
    config = EmbedderConfig(n=12, epochs=3, seed=3)
    real = embed._learning_rate
    with mock.patch.object(embed, "_learning_rate", lambda c, e: 1e200 if e == c.epochs - 1 else real(c, e)):
        with pytest.raises(EmbeddingError, match="non-finite word or document vectors after epoch 2"):
            embed.train_embedder(docs, config)


# --- inference from the draw cache, stacked by length -------------------------

_PROBE_TOKENS = [f"w{i}" for i in range(40)] + ["never-seen", "also-new"]


@functools.lru_cache(maxsize=None)
def _random_model(negative_samples):
    """A model with random weights at the default n, large enough that
    scores saturate past |8| both ways. It is shared across examples, so
    they also run against a draw cache that earlier ones grew."""
    rng = np.random.default_rng(negative_samples)
    vocab = {tok: i for i, tok in enumerate(_PROBE_TOKENS[:40])}
    return embed.ParagraphVectorModel(
        vocabulary=vocab, word_matrix=rng.normal(0.0, 2.0, size=(len(vocab), 64)),
        token_counts=rng.integers(1, 50, size=len(vocab)).astype(float),
        config=EmbedderConfig(n=64, epochs=9, negative_samples=negative_samples, seed=3))


@settings(max_examples=60, deadline=None)
@given(negative_samples=st.sampled_from([0, 1, 5]),
       token_lists=st.lists(st.lists(st.sampled_from(_PROBE_TOKENS), max_size=30), max_size=12),
       stack_bytes=st.sampled_from([1, 3 * 8 * 30 * 70, 1 << 17]),
       data=st.data())
def test_stacked_inference_matches_single_and_reference(negative_samples, token_lists, stack_bytes, data):
    model = _random_model(negative_samples)
    order = data.draw(st.permutations(range(len(token_lists))))
    with mock.patch.object(embed, "_STACK_BYTES", stack_bytes):
        vectors, oov = embed._infer_vectors(model, token_lists)
        shuffled, shuffled_oov = embed._infer_vectors(model, [token_lists[i] for i in order])
    assert vectors.shape == (len(token_lists), 64)
    for position, i in enumerate(order):
        assert _same_bits(shuffled[position], vectors[i])
        assert shuffled_oov[position] == oov[i]
    for tokens, vec, flag in zip(token_lists, vectors, oov):
        alone, alone_flag = embed.infer_vector(model, tokens)
        assert flag == alone_flag == (not any(t in model.vocabulary for t in tokens))
        assert _same_bits(vec, alone)
        if flag:
            assert _same_bits(vec, np.zeros(64))
        else:
            assert _same_bits(vec, _ref_infer(model, tokens))


@pytest.mark.parametrize("negative_samples", [0, 5])
def test_one_token_fragments_match_the_reference_alone_and_stacked(negative_samples):
    model = _random_model(negative_samples)
    token_lists = [["w3"], ["w7"], ["w3"], ["never-seen", "w11"]]
    vectors, _ = embed._infer_vectors(model, token_lists)
    for tokens, vec in zip(token_lists, vectors):
        assert _same_bits(vec, embed.infer_vector(model, tokens)[0])
        assert _same_bits(vec, _ref_infer(model, tokens))


def test_an_exact_zero_in_an_inferred_vector_is_positive_zero():
    # One epoch at rate 1 with no negatives gives v0 - c * w, and c * w[0]
    # rounds to v0[0] for this w (found by a search), so the reference ends
    # at v0[0] - v0[0] = +0.0. Inference, which holds -v, ends at
    # -v0[0] + v0[0] = +0.0 too, where a plain negation would give -0.0.
    config = EmbedderConfig(n=2, epochs=1, negative_samples=0, learning_rate=1.0, seed=0)
    model = embed.ParagraphVectorModel({"a": 0, "b": 1}, np.array([[-0.16412499645029593, -3.0], [1.0, 1.0]]),
                                       np.ones(2), config)
    reference = _ref_infer(model, ["a"])
    assert reference[0] == 0.0 and not np.signbit(reference[0])
    assert _same_bits(embed.infer_vector(model, ["a"])[0], reference)
    assert _same_bits(embed._infer_vectors(model, [["a"], ["b"], ["a"]])[0][0], reference)


def test_embed_corpus_matches_infer_vector_in_input_order():
    records = synth.generate_corpus(4, 3, "learned", seed=4).records
    frags = {rec.patch_id: diffparse.fragments_for_diff(rec.diff_text) for rec in records}
    docs = [list(tokens) for frag in frags.values() for tokens in (frag.buggy_tokens, frag.patched_tokens)]
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=5, seed=3))
    frags["oov"] = dataclasses.replace(next(iter(frags.values())), buggy_tokens=("never-seen",))
    pairs, flagged = embed.embed_corpus(model, frags)
    assert [p.patch_id for p in pairs] == list(frags)
    assert flagged == ["oov"]
    assert not pairs[-1].buggy_vec.any()
    for p in pairs:
        for vec, tokens in ((p.buggy_vec, frags[p.patch_id].buggy_tokens),
                            (p.patched_vec, frags[p.patch_id].patched_tokens)):
            assert _same_bits(vec, embed.infer_vector(model, tokens)[0])


def test_draw_cache_holds_the_longest_fragment_and_survives_reload(tmp_path):
    docs, _ = _cluster_docs(20)
    config = EmbedderConfig(n=8, epochs=6, negative_samples=3, seed=2)
    model = embed.train_embedder(docs, config)
    assert model.draws is None
    long_doc, short_doc = docs[0] + docs[1], docs[2][:3]
    long_vec, _ = embed.infer_vector(model, long_doc)
    assert model.draws.length == len(long_doc)
    assert model.draws.negatives.shape == (config.epochs * config.negative_samples * len(long_doc),)
    cache = model.draws.negatives
    short_vec, _ = embed.infer_vector(model, short_doc)
    assert model.draws.negatives is cache
    assert _same_bits(short_vec, _ref_infer(model, short_doc))
    assert _same_bits(long_vec, _ref_infer(model, long_doc))

    path = tmp_path / "model.json"
    embed.save_model(model, path)
    assert "draws" not in json.loads(path.read_text())
    loaded = embed.load_model(path)
    assert loaded.draws is None
    assert _same_bits(embed.infer_vector(loaded, short_doc)[0], short_vec)
    assert _same_bits(embed.infer_vector(loaded, long_doc)[0], long_vec)

    # A replaced config (here a new seed) rebuilds the cache.
    model.config = dataclasses.replace(config, seed=9)
    reseeded, _ = embed.infer_vector(model, short_doc)
    assert model.draws.config is model.config and model.draws.length == len(short_doc)
    assert _same_bits(reseeded, _ref_infer(model, short_doc))
    assert not np.array_equal(reseeded, short_vec)
    # So does a new learning rate, which the cache's per-epoch rates follow.
    model.config = dataclasses.replace(config, learning_rate=0.05)
    faster, _ = embed.infer_vector(model, short_doc)
    assert model.draws.rates[0] == 0.05 and model.draws.rates[0].ndim == 0
    assert _same_bits(faster, _ref_infer(model, short_doc))
    assert not np.array_equal(faster, short_vec)


def test_non_finite_inferred_vector_raises_from_both_paths():
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=10, seed=3))
    model.word_matrix = model.word_matrix * 1e300
    # An error, not a RuntimeWarning (warnings are errors in this suite).
    with pytest.raises(EmbeddingError, match="non-finite"):
        embed.infer_vector(model, docs[0])
    with pytest.raises(EmbeddingError, match="non-finite"):
        embed._infer_vectors(model, [docs[0], docs[1], docs[2]])


# --- embedder settings ---------------------------------------------------------

# Each embedder setting's train-embedder flag, whose name is its config entry.
_SETTING_FLAGS = {"n": "dim", "epochs": "epochs", "negative_samples": "negative", "learning_rate": "lr",
                  "min_token_count": "min-count", "seed": "embedder-seed"}


@pytest.mark.parametrize("key, value, flag", [
    ("n", 1, "--dim"),
    ("n", True, None),
    ("epochs", 0, "--epochs"),
    ("epochs", -1, "--epochs"),
    ("epochs", 2.5, None),
    ("negative_samples", -1, "--negative"),
    ("min_token_count", 0, "--min-count"),
    ("seed", -3, "--embedder-seed"),
    ("seed", 1.5, None),
    ("learning_rate", 0.0, "--lr"),
    ("learning_rate", math.inf, "--lr"),
    ("learning_rate", "x", None),
])
def test_invalid_embedder_settings_are_rejected(tmp_path, capsys, key, value, flag):
    message = f"embedder {key} must be"
    with pytest.raises(EmbeddingError, match=message):
        EmbedderConfig(**{key: value})

    corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "embedder.json"
    corpus.persist(synth.generate_corpus(4, 2, "learned", seed=1), corpus_path)
    if flag is None:  # the setting's value as the config entry of its flag, which is of the flag's type
        entry = _SETTING_FLAGS[key]
        (tmp_path / "config.json").write_text(json.dumps({entry: value}))
        argv = ["--config", str(tmp_path / "config.json"), "train-embedder"]
        refusal = f"error[usage]: --{entry} must be {'a number' if key == 'learning_rate' else 'an integer'}, got "
    else:
        argv = ["train-embedder", flag, str(value)]
        # inf is no number, so the --lr flag refuses it before the embedder sees it.
        refusal = f"error[usage]: {flag} must be a number, got inf" if value == math.inf else f"error[embed]: {message}"
    assert cli.main(argv + ["--corpus", str(corpus_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(refusal)
    assert not out.exists()

    path, doc = _saved_model_doc(tmp_path)
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(EmbeddingError, match=f"model.json: {message}"):
        embed.load_model(path)


# --- load-time validation ------------------------------------------------------

def _saved_model_doc(tmp_path):
    docs, _ = _cluster_docs(20)
    path = tmp_path / "model.json"
    embed.save_model(embed.train_embedder(docs, EmbedderConfig(n=64, epochs=2, seed=1)), path)
    return path, json.loads(path.read_text())


def _cut_columns(doc):
    doc["word_matrix"] = [row[:32] for row in doc["word_matrix"]]


def _cut_rows(doc):
    doc["word_matrix"] = doc["word_matrix"][:10]


def _cut_counts(doc):
    doc["token_counts"] = doc["token_counts"][:10]


def _zero_count(doc):
    doc["token_counts"][0] = 0.0


def _shift_ids(doc):
    doc["vocabulary"] = {tok: i + 1 for tok, i in doc["vocabulary"].items()}


def _infinite_weight(doc):
    doc["word_matrix"][2][5] = 1e400  # json writes Infinity


def _unknown_config_key(doc):
    doc["config"]["window"] = 5


def _version_true(doc):
    doc["format_version"] = True


def _kind_list(doc):
    doc["kind"] = []


def _kind_of_a_learner(doc):
    doc["kind"] = "DecisionTree"


def _infinite_id(doc):
    doc["vocabulary"][next(iter(doc["vocabulary"]))] = math.inf


def _float_id(doc):
    doc["vocabulary"][next(iter(doc["vocabulary"]))] = 0.0


def _true_id(doc):
    doc["vocabulary"][next(tok for tok, i in doc["vocabulary"].items() if i == 1)] = True


def _true_weight(doc):
    doc["word_matrix"][0][0] = True


def _text_count(doc):
    doc["token_counts"][0] = "0.5"


def _huge_weight(doc):
    doc["word_matrix"][3][1] = 10**400


def _huge_count(doc):
    doc["token_counts"][0] = 10**400


def _huge_learning_rate(doc):
    doc["config"]["learning_rate"] = 10**400


@pytest.mark.parametrize("corrupt, message", [
    (_cut_columns, r"word_matrix is \(24, 32\), expected \(24, 64\)"),
    (_cut_rows, r"word_matrix is \(10, 64\), expected \(24, 64\)"),
    (_cut_counts, r"token_counts has shape \(10,\), expected \(24,\)"),
    (_zero_count, "token_counts must be positive"),
    (_shift_ids, "vocabulary ids are not exactly 0..23"),
    (_infinite_weight, "non-finite"),
    (_unknown_config_key, "malformed"),
    (_version_true, "unsupported model format version True"),
    (_kind_list, r"unknown model kind \[\]"),
    (_kind_of_a_learner, "unknown model kind 'DecisionTree'; known: ParagraphVectorModel"),
    (_infinite_id, "vocabulary ids are not exactly 0..23"),
    (_float_id, "vocabulary ids are not exactly 0..23"),
    # true, a string or an integer too large for a float is not a number (fileio.numbers).
    (_true_id, "vocabulary ids are not exactly 0..23"),
    (_true_weight, "word_matrix must be finite numbers: got true"),
    (_text_count, 'token_counts must be finite numbers: got "0.5"'),
    (_huge_weight, "word_matrix must be finite numbers: got an integer too large for a float"),
    (_huge_count, "token_counts must be finite numbers: got an integer too large for a float"),
    (_huge_learning_rate, "embedder learning_rate must be a number > 0, got 1000"),
])
def test_load_model_rejects_inconsistent_files(tmp_path, corrupt, message):
    path, doc = _saved_model_doc(tmp_path)
    assert len(doc["vocabulary"]) == 24
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(EmbeddingError, match=message):
        embed.load_model(path)


def test_draw_cache_keeps_no_fragment_longer_than_its_cap():
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=3, negative_samples=2, seed=4))
    vocab = list(model.vocabulary)
    long_doc = [vocab[i % len(vocab)] for i in range(embed._DRAWS_MAX_TOKENS + 7)]
    long_vec, _ = embed.infer_vector(model, long_doc)
    assert model.draws is None
    assert _same_bits(long_vec, _ref_infer(model, long_doc))
    embed.infer_vector(model, docs[1])
    cache = model.draws
    assert _same_bits(embed.infer_vector(model, long_doc)[0], long_vec)
    assert model.draws is cache and cache.length == len(docs[1])
    token_lists = [long_doc, docs[0] + docs[2], docs[1], long_doc[:-6], long_doc[:-7]]
    vectors, _ = embed._infer_vectors(model, token_lists)
    assert model.draws.length == embed._DRAWS_MAX_TOKENS
    for vec, tokens in zip(vectors, token_lists):
        assert _same_bits(vec, _ref_infer(model, tokens))


# --- corpus inference on two CPUs -----------------------------------------------
# With worker.INFER_TOKEN_EPOCHS at 0 every corpus inference forks a worker
# for half of its stacks where it can (Linux, two usable CPUs, numpy's
# OpenBLAS). Each test compares the vectors, or the error, with inference
# where nothing forks, and checks that no child process is left and the CPU
# set is as it was.

needs_two_cpus = pytest.mark.skipif(not worker.forks(1, 0) or worker.blas_threads() is None,
                                    reason="inference workers need Linux, two CPUs and numpy's OpenBLAS")


@contextlib.contextmanager
def _pinned(cpus):
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@contextlib.contextmanager
def _inference_workers(monkeypatch):
    before = os.sched_getaffinity(0)
    monkeypatch.setattr(worker, "INFER_TOKEN_EPOCHS", 0)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    yield forks
    monkeypatch.undo()
    assert os.sched_getaffinity(0) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _mixed_fragments():
    """A model, and fragments of mixed lengths: 1 token, an all-OOV side,
    same-length stacks, and one longer than the draw cache holds."""
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=3, negative_samples=2, seed=4))
    vocab = sorted(model.vocabulary)
    long_doc = [vocab[i % len(vocab)] for i in range(embed._DRAWS_MAX_TOKENS + 7)]
    sides = [doc[:1 + i % 8] for i, doc in enumerate(docs)] + [[vocab[0]], ["never-seen"], long_doc, docs[0] * 5]
    frags = {f"p{i}": diffparse.FragmentPair("", "", tuple(buggy), tuple(patched))
             for i, (buggy, patched) in enumerate(zip(sides, sides[::-1]))}
    return model, frags


def _embedded(model, frags):
    """embed_corpus on a copy of the model whose draw cache is empty."""
    pairs, flagged = embed.embed_corpus(dataclasses.replace(model), frags)
    return np.array([[p.buggy_vec, p.patched_vec] for p in pairs]), flagged


def test_corpus_inference_in_two_halves_gives_the_bits_of_one_cpu_and_of_infer_vector(monkeypatch):
    model, frags = _mixed_fragments()
    with _pinned({min(os.sched_getaffinity(0))}):
        alone, alone_flagged = _embedded(model, frags)
    with _inference_workers(monkeypatch) as forks:
        halves, flagged = _embedded(model, frags)
    assert len(forks) == int(worker.forks(1, 0) and worker.blas_threads() is not None)
    assert _same_bits(halves, alone)
    assert flagged == alone_flagged == ["p2", "p21"]
    for (buggy, patched), frag in zip(halves, frags.values()):
        for vec, tokens in ((buggy, frag.buggy_tokens), (patched, frag.patched_tokens)):
            assert _same_bits(vec, embed.infer_vector(model, tokens)[0])
    assert _same_bits(halves[21, 0], np.zeros(8)) and _same_bits(halves[2, 1], np.zeros(8))


@needs_two_cpus
def test_inference_halves_run_on_one_blas_thread_and_start_no_thread_pool(monkeypatch):
    # Each process records, in an anonymous shared mapping, its BLAS thread
    # count and its OS threads as it infers a stack. After a fork, OpenBLAS
    # restarts its pool in the first call that sets a count, and a pool
    # started inside the pin spins on the CPU of the work.
    model, frags = _mixed_fragments()
    seen = np.frombuffer(mmap.mmap(-1, 32), dtype=np.int64).reshape(2, 2)
    get_threads, set_threads = worker.blas_threads()
    parent, infer = os.getpid(), embed._infer

    def recorded(*args):
        seen[int(os.getpid() != parent)] = get_threads(), len(os.listdir("/proc/self/task"))
        return infer(*args)
    before = get_threads()
    set_threads(2)
    try:
        with _inference_workers(monkeypatch) as forks:
            monkeypatch.setattr(embed, "_infer", recorded)
            _embedded(model, frags)
        assert len(forks) == 1 and get_threads() == 2
    finally:
        set_threads(before)
    assert seen[0, 0] == 1
    assert seen[1].tolist() == [1, 1]


def test_corpus_inference_with_inference_workers_on_one_cpu_does_not_fork(monkeypatch):
    model, frags = _mixed_fragments()
    alone, _ = _embedded(model, frags)
    with _inference_workers(monkeypatch) as forks, _pinned({min(os.sched_getaffinity(0))}):
        pinned, _ = _embedded(model, frags)
    assert forks == []
    assert _same_bits(pinned, alone)


def test_a_corpus_of_one_stack_does_not_fork(monkeypatch):
    model, frags = _mixed_fragments()
    # The side longer than the draw cache, and an all-OOV side
    one = {"p": dataclasses.replace(frags["p22"], patched_tokens=("never-seen",))}
    alone, _ = _embedded(model, one)
    with _inference_workers(monkeypatch) as forks:
        stacked, _ = _embedded(model, one)
    assert forks == []
    assert _same_bits(stacked, alone)


@needs_two_cpus
@pytest.mark.parametrize("failure", ["fork", "worker"])
def test_a_lost_inference_worker_gives_the_same_vectors_serially(failure, monkeypatch):
    # A fork that fails raises OSError (Worker: WorkerLost before anything
    # ran); a worker that dies leaves its half for this process to infer.
    model, frags = _mixed_fragments()
    alone, _ = _embedded(model, frags)
    with _inference_workers(monkeypatch) as forks:
        if failure == "fork":
            def refused():
                forks.append(os.getpid())
                raise OSError(errno.EAGAIN, "fork refused")
            monkeypatch.setattr(os, "fork", refused)
        else:
            parent, infer = os.getpid(), embed._infer
            monkeypatch.setattr(embed, "_infer", lambda *args: infer(*args) if os.getpid() == parent else os._exit(1))
        lost, _ = _embedded(model, frags)
    assert len(forks) == 1
    assert _same_bits(lost, alone)


@pytest.mark.parametrize("workers", [False, True])
def test_a_non_finite_vector_raises_the_same_error_from_two_cpus(workers, monkeypatch):
    model, frags = _mixed_fragments()
    model.word_matrix = model.word_matrix * 1e300
    with pytest.raises(EmbeddingError) as alone:
        embed.infer_vector(model, frags["p0"].buggy_tokens)
    with _inference_workers(monkeypatch) if workers else contextlib.nullcontext():
        with pytest.raises(EmbeddingError) as corpus_error:
            embed.embed_corpus(model, frags)
    assert str(corpus_error.value) == str(alone.value) == "non-finite inferred vector; lower the learning rate"


def test_training_memory_peak_on_the_readme_corpus():
    # The README corpus: 400 fragments, 8,800 tokens. Three epochs at the
    # default n and k peaked at 2,509,651 bytes (numpy 2.4.6, Python
    # 3.11); the bound leaves 3%. Arrays made at every document's step (a
    # gather, two gradients, the update's positions, the step) and a fresh
    # draw each epoch peaked at 2,599,975. Scratch of n floats kept per
    # document would add 250 KB, and a (T * (1 + k), n) one 27 MB.
    records = synth.generate_corpus(40, 5, "learned", seed=11).records
    frags = [diffparse.fragments_for_diff(rec.diff_text) for rec in records]
    docs = [list(tokens) for frag in frags for tokens in (frag.buggy_tokens, frag.patched_tokens)]
    tracemalloc.start()
    try:
        embed.train_embedder(docs, EmbedderConfig(epochs=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_585_000
