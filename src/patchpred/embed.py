"""Fragment embeddings: a trainable paragraph-vector model, imported vectors,
and the two similarity primitives used throughout the pipeline.

The built-in embedder is a distributed-bag-of-words paragraph-vector model
with negative sampling: each document vector is trained to score its own
tokens above noise-sampled tokens against a shared output word matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmbeddingError

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EmbeddingPair:
    patch_id: str
    buggy_vec: np.ndarray
    patched_vec: np.ndarray
    provider: str
    n: int


@dataclass(frozen=True)
class EmbedderConfig:
    n: int = 64
    epochs: int = 100
    negative_samples: int = 5
    learning_rate: float = 0.025
    min_token_count: int = 1
    seed: int = 0


@dataclass
class ParagraphVectorModel:
    vocabulary: dict[str, int]
    word_matrix: np.ndarray  # |V| x n
    token_counts: np.ndarray  # |V|, for the noise distribution
    config: EmbedderConfig
    training_report: dict = field(default_factory=dict)
    doc_vectors: np.ndarray | None = None  # training-time only, not persisted


def cosine(a, b) -> float:
    """Standard cosine similarity; zero-norm inputs map to 0.0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"cosine: length mismatch {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    # Clamp: rounding (and denormal underflow) can push the ratio past +/-1.
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def is_zero_norm(v) -> bool:
    return float(np.linalg.norm(np.asarray(v, dtype=float))) == 0.0


def euclidean_similarity(a, b) -> float:
    """Map euclidean distance d to (0, 1] via 1 / (1 + d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"euclidean_similarity: length mismatch {a.shape} vs {b.shape}")
    return float(1.0 / (1.0 + np.linalg.norm(a - b)))


def _sigmoid(x):
    """Sigmoid with exact saturation beyond |x| = 8.

    Saturated pairs contribute a zero gradient, which keeps vector norms
    bounded over long training runs (the word2vec MAX_EXP convention).
    """
    x = np.asarray(x, dtype=float)
    out = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -8.0), 8.0)))
    out[x > 8.0] = 1.0
    out[x < -8.0] = 0.0
    return out


def _build_vocab(documents, min_count: int):
    counts: dict[str, int] = {}
    for tokens in documents:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    kept = [(tok, c) for tok, c in counts.items() if c >= min_count]
    # High-frequency first, token text breaking ties, for a stable index map.
    kept.sort(key=lambda item: (-item[1], item[0]))
    vocab = {tok: i for i, (tok, _) in enumerate(kept)}
    freq = np.array([c for _, c in kept], dtype=float)
    return vocab, freq


def _noise_cumulative(freq: np.ndarray) -> np.ndarray:
    # Unigram^0.75 noise distribution, precomputed as a CDF for sampling.
    weights = freq**0.75
    return np.cumsum(weights / weights.sum())


def _learning_rate(config: EmbedderConfig, epoch: int) -> float:
    # Linear decay to 10% of the initial rate by the final epoch.
    frac = epoch / max(config.epochs - 1, 1)
    return config.learning_rate * (1.0 - 0.9 * frac)


def _doc_step(doc_vec, word_matrix, pos_idx, neg_idx, lr):
    """One negative-sampling step over every token of a document.

    Gradients are computed against the current parameters and applied once,
    which keeps the update deterministic and vectorizable.
    Returns the summed pair loss.
    """
    n, n_pos = len(doc_vec), len(pos_idx)
    rows = np.concatenate((pos_idx, neg_idx.reshape(-1)))  # T positives, then T*k negatives
    vecs = word_matrix[rows]
    pos_vecs, neg_vecs = vecs[:n_pos], vecs[n_pos:]
    coef = _sigmoid(np.concatenate((pos_vecs @ doc_vec, neg_vecs @ doc_vec)))
    # loss = -log sigma(pos) - sum log sigma(-neg)
    loss = float(-np.sum(np.log(np.maximum(coef[:n_pos], 1e-12)))
                 - np.sum(np.log(np.maximum(1.0 - coef[n_pos:], 1e-12))))
    coef[:n_pos] -= 1.0
    grad_doc = coef[:n_pos] @ pos_vecs + coef[n_pos:] @ neg_vecs
    # One scatter-add over the flat matrix (1-D ufunc.at has a fast path).
    # Repeated indices are applied in order, so each element gets its
    # positive updates, then its negative ones, in token order.
    update = np.outer(coef, doc_vec)
    update *= -lr
    np.add.at(word_matrix.reshape(-1), (rows[:, None] * n + np.arange(n)).ravel(), update.ravel())
    doc_vec -= lr * grad_doc
    return loss


def _sample_negatives(rng, noise_cdf, shape):
    return np.searchsorted(noise_cdf, rng.random(shape)).astype(np.intp)


def train_embedder(documents, config: EmbedderConfig | None = None) -> ParagraphVectorModel:
    """Train document and word vectors over tokenized fragments.

    Deterministic under config.seed. Raises when the vocabulary is too small
    or the loss goes non-finite (learning rate too high).
    """
    config = config or EmbedderConfig()
    documents = [list(doc) for doc in documents]
    if config.n < 2:
        raise EmbeddingError(f"embedding dimension must be >= 2, got {config.n}")
    vocab, freq = _build_vocab(documents, config.min_token_count)
    if len(vocab) < 2:
        raise EmbeddingError(
            f"vocabulary has {len(vocab)} token(s) with count >= {config.min_token_count}; need at least 2"
        )
    noise_cdf = _noise_cumulative(freq)
    indexed = [np.array([vocab[t] for t in doc if t in vocab], dtype=np.intp) for doc in documents]

    rng = np.random.default_rng(config.seed)
    doc_vectors = rng.uniform(-0.5 / config.n, 0.5 / config.n, size=(len(documents), config.n))
    word_matrix = np.zeros((len(vocab), config.n), dtype=float)

    k = config.negative_samples
    n_tokens = sum(len(pos_idx) for pos_idx in indexed)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        lr = _learning_rate(config, epoch)
        # One draw per epoch, sliced per document in order: the same stream
        # as a (len(doc), k) draw per document.
        negatives = _sample_negatives(rng, noise_cdf, (n_tokens, k))
        total, start = 0.0, 0
        for d, pos_idx in enumerate(indexed):
            if len(pos_idx) == 0:
                continue
            stop = start + len(pos_idx)
            total += _doc_step(doc_vectors[d], word_matrix, pos_idx, negatives[start:stop], lr)
            start = stop
        avg = total / max(n_tokens, 1)
        if not math.isfinite(avg):
            raise EmbeddingError(f"non-finite training loss at epoch {epoch}; lower the learning rate")
        epoch_losses.append(avg)

    report = {
        "initial_loss": epoch_losses[0] if epoch_losses else 0.0,
        "final_loss": epoch_losses[-1] if epoch_losses else 0.0,
        "epochs": config.epochs,
        "vocabulary_size": len(vocab),
        "documents": len(documents),
    }
    return ParagraphVectorModel(
        vocabulary=vocab,
        word_matrix=word_matrix,
        token_counts=freq,
        config=config,
        training_report=report,
        doc_vectors=doc_vectors,
    )


def infer_vector(model: ParagraphVectorModel, tokens) -> tuple[np.ndarray, bool]:
    """Infer a vector for a token list against the frozen word matrix.

    Returns (vector, all_oov_flag). Empty or fully out-of-vocabulary input
    yields the zero vector with the flag set. Same seed, same tokens, same
    result.
    """
    config = model.config
    pos_idx = np.array([model.vocabulary[t] for t in tokens if t in model.vocabulary], dtype=np.intp)
    if len(pos_idx) == 0:
        return np.zeros(config.n), True
    rng = np.random.default_rng(config.seed)
    vec = rng.uniform(-0.5 / config.n, 0.5 / config.n, size=config.n)
    noise_cdf = _noise_cumulative(model.token_counts)
    n_pos = len(pos_idx)
    # The word matrix is frozen: gather the token rows once, and draw every
    # epoch's negatives at once (the same stream as one draw per epoch).
    pos_vecs = model.word_matrix[pos_idx]
    negatives = _sample_negatives(rng, noise_cdf, (config.epochs, n_pos * config.negative_samples))
    for epoch, neg_idx in enumerate(negatives):
        neg_vecs = model.word_matrix[neg_idx]
        coef = _sigmoid(np.concatenate((pos_vecs @ vec, neg_vecs @ vec)))
        coef[:n_pos] -= 1.0
        vec -= _learning_rate(config, epoch) * (coef[:n_pos] @ pos_vecs + coef[n_pos:] @ neg_vecs)
    if not np.all(np.isfinite(vec)):
        raise EmbeddingError("non-finite inferred vector; lower the learning rate")
    return vec, False


def save_model(model: ParagraphVectorModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "ParagraphVectorModel",
        "vocabulary": model.vocabulary,
        "word_matrix": model.word_matrix.tolist(),
        "token_counts": model.token_counts.tolist(),
        "config": asdict(model.config),
        "training_report": model.training_report,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path) -> ParagraphVectorModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EmbeddingError(f"{path}: not a valid paragraph-vector model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "ParagraphVectorModel":
        raise EmbeddingError(f"{path} is not a paragraph-vector model file")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise EmbeddingError(f"{path}: unsupported model format version {doc.get('format_version')!r}")
    try:
        model = ParagraphVectorModel(
            vocabulary={str(k): int(v) for k, v in doc["vocabulary"].items()},
            word_matrix=np.array(doc["word_matrix"], dtype=float),
            token_counts=np.array(doc["token_counts"], dtype=float),
            config=EmbedderConfig(**doc["config"]),
            training_report=doc.get("training_report", {}),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise EmbeddingError(f"{path}: malformed paragraph-vector model: {exc!r}") from exc
    size, n = len(model.vocabulary), model.config.n
    if sorted(model.vocabulary.values()) != list(range(size)):
        problem = f"vocabulary ids are not exactly 0..{size - 1}"
    elif model.word_matrix.shape != (size, n):
        problem = f"word_matrix is {model.word_matrix.shape}, expected ({size}, {n})"
    elif model.token_counts.shape != (size,):
        problem = f"token_counts has shape {model.token_counts.shape}, expected ({size},)"
    elif not np.all(np.isfinite(model.word_matrix)):
        problem = "word_matrix has non-finite values"
    elif not (np.all(np.isfinite(model.token_counts)) and np.all(model.token_counts > 0)):
        problem = "token_counts must be positive and finite"
    else:
        return model
    raise EmbeddingError(f"{path}: inconsistent paragraph-vector model: {problem}")


def import_embeddings(path) -> list[EmbeddingPair]:
    """Read externally produced vectors: JSONL of patch_id/buggy_vec/patched_vec.

    All vectors must share one dimension (taken from the first record) and be
    finite. Vectors are used as-is, without re-normalization.
    """
    pairs: list[EmbeddingPair] = []
    n: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EmbeddingError(f"{path} line {lineno}: invalid JSON: {exc}") from exc
            try:
                patch_id = obj["patch_id"]
                buggy = np.array(obj["buggy_vec"], dtype=float)
                patched = np.array(obj["patched_vec"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise EmbeddingError(f"{path} line {lineno}: malformed record: {exc}") from exc
            if buggy.ndim != 1 or patched.ndim != 1:
                raise EmbeddingError(f"{path} line {lineno}: vectors must be flat lists")
            if n is None:
                n = len(buggy)
                if n == 0:
                    raise EmbeddingError(f"{path} line {lineno}: empty vector")
            if len(buggy) != n or len(patched) != n:
                raise EmbeddingError(
                    f"{path} line {lineno}: patch {patch_id!r} has vector length "
                    f"{len(buggy)}/{len(patched)}, expected {n}"
                )
            if not (np.all(np.isfinite(buggy)) and np.all(np.isfinite(patched))):
                raise EmbeddingError(f"{path} line {lineno}: patch {patch_id!r} has non-finite values")
            pairs.append(EmbeddingPair(patch_id, buggy, patched, provider="imported", n=n))
    if not pairs:
        raise EmbeddingError(f"no embedding records in {path}")
    return pairs


def export_embeddings(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(
                json.dumps(
                    {
                        "patch_id": pair.patch_id,
                        "buggy_vec": [float(x) for x in pair.buggy_vec],
                        "patched_vec": [float(x) for x in pair.patched_vec],
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def embed_corpus(model: ParagraphVectorModel, fragments_by_patch, provider: str = "builtin"):
    """Embed {patch_id: FragmentPair} into EmbeddingPairs, in input order.

    Returns (pairs, flagged_patch_ids) where flagged ids had an empty or
    all-OOV side embedded as the zero vector.
    """
    pairs: list[EmbeddingPair] = []
    flagged: list[str] = []
    for patch_id, frag in fragments_by_patch.items():
        bv, bflag = infer_vector(model, frag.buggy_tokens)
        pv, pflag = infer_vector(model, frag.patched_tokens)
        if bflag or pflag:
            flagged.append(patch_id)
        pairs.append(EmbeddingPair(patch_id, bv, pv, provider=provider, n=model.config.n))
    return pairs, flagged
