import numpy as np
import pytest

from patchpred import crossing, diffparse, embed, engineered, synth
from patchpred.corpus import Label
from patchpred.evaluate import JointRow


def build_joint_rows(corpus, n=16, epochs=100, embedder_seed=0, with_engineered=True):
    """Run the full representation pipeline: fragments -> embedder -> crossed
    features (plus engineered features), producing JointRows."""
    frags = {r.patch_id: diffparse.fragments_for_diff(r.diff_text) for r in corpus.records}
    documents = []
    for frag in frags.values():
        documents.append(list(frag.buggy_tokens))
        documents.append(list(frag.patched_tokens))
    model = embed.train_embedder(
        documents, embed.EmbedderConfig(n=n, epochs=epochs, seed=embedder_seed))
    pairs, _ = embed.embed_corpus(model, frags)
    by_id = corpus.by_patch_id()
    rows = []
    for pair in pairs:
        rec = by_id[pair.patch_id]
        rows.append(JointRow(
            pair.patch_id, rec.bug_id,
            1 if rec.label is Label.CORRECT else 0,
            learned=crossing.cross(pair).values,
            engineered=engineered.extract_all(rec).values if with_engineered else None,
        ))
    return rows


@pytest.fixture(scope="session")
def separable_rows():
    """200 patches over 40 bugs whose label tracks the fragment-similarity bit."""
    return build_joint_rows(synth.generate_corpus(40, 5, "learned", seed=11))


@pytest.fixture(scope="session")
def xor_rows():
    """240 patches whose label is the XOR of the similarity bit and the
    single-line shape bit: neither feature set suffices alone."""
    return build_joint_rows(synth.generate_corpus(40, 6, "xor", seed=7))


@pytest.fixture(scope="session")
def blob_data():
    """Two separable 2-D Gaussian blobs, the standard learner sanity set."""
    rng = np.random.default_rng(123)
    n = 60
    X = np.vstack([rng.normal(loc=(-2.0, -2.0), scale=0.6, size=(n, 2)),
                   rng.normal(loc=(2.0, 2.0), scale=0.6, size=(n, 2))])
    y = np.array([0] * n + [1] * n)
    return X, y


def paper_shaped_matrix():
    """1,600 x 202 like a paper-scale fold: hashed counts with ties, cross
    terms of a few values each, and flags."""
    rng = np.random.default_rng(5)
    counts = rng.poisson(1.0, size=(1600, 100)).astype(float)
    cross = np.round(rng.normal(size=(1600, 80)), 1)
    X = np.hstack([counts, cross, rng.integers(0, 2, size=(1600, 22)).astype(float)])
    y = ((counts[:, 0] > 0) ^ (cross[:, 0] > 0)).astype(float)
    return X, y
