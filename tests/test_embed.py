import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from patchpred import embed
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
    assert np.array_equal(v1, v2)


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
    assert np.array_equal(m1.word_matrix, m2.word_matrix)
    assert np.array_equal(m1.doc_vectors, m2.doc_vectors)


def test_model_save_load_round_trip(tmp_path):
    docs, _ = _cluster_docs(20)
    model = embed.train_embedder(docs, EmbedderConfig(n=8, epochs=10, seed=1))
    path = tmp_path / "model.json"
    embed.save_model(model, path)
    loaded = embed.load_model(path)
    v1, _ = embed.infer_vector(model, docs[3])
    v2, _ = embed.infer_vector(loaded, docs[3])
    assert np.array_equal(v1, v2)


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


def test_export_import_round_trip(tmp_path):
    pairs = [embed.EmbeddingPair("p1", np.array([0.5, -1.5]), np.array([2.0, 0.25]), "x", 2)]
    path = tmp_path / "e.jsonl"
    embed.export_embeddings(pairs, path)
    back = embed.import_embeddings(path)
    assert np.array_equal(back[0].buggy_vec, pairs[0].buggy_vec)
    assert np.array_equal(back[0].patched_vec, pairs[0].patched_vec)
