"""Fragment embeddings: a trainable paragraph-vector model, imported vectors,
and the two similarity primitives used throughout the pipeline.

The built-in embedder is a distributed-bag-of-words paragraph-vector model
with negative sampling: each document vector is trained to score its own
tokens above noise-sampled tokens against a shared output word matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import fileio, worker
from .defaults import HYPERPARAMETER_CHECKS
from .errors import EmbeddingError

MODEL_FORMAT_VERSION = 1

# Bytes of token rows and scores one stacked inference call may hold: 8
# fragments of 29 tokens at the default n and k. Twice this saved 0.04 ms
# per fragment but raised the walkthrough's peak RSS by about 0.2 MB.
_STACK_BYTES = 1 << 17

# Longest fragment, in in-vocabulary tokens, whose draws the model caches:
# 4 MB of negative ids at the default epochs and k. A longer fragment draws
# its own, as uncached inference did.
_DRAWS_MAX_TOKENS = 1024

# Keys one negative draw searches at a time: bounds its temporaries at
# ~200 KB. Blocks 8x larger searched the README corpus's epoch draw 3x slower.
_DRAW_BLOCK = 1 << 13

# The scalar operands of the epoch loops as 0-d arrays: numpy converts a
# Python float operand on every call, 0.1-0.25 us each, and the values, so
# the bits, are the same.
_ZERO, _ONE, _LOW, _HIGH = np.array(0.0), np.array(1.0), np.array(-8.0), np.array(8.0)

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

    def __post_init__(self):
        """Checks every setting, however the config was built: the inference
        draw cache sizes itself as epochs * negative_samples * tokens."""
        for key, value in ((f.name, getattr(self, f.name)) for f in fields(self)):
            valid, what = HYPERPARAMETER_CHECKS[key]
            if not valid(value):
                raise EmbeddingError(f"embedder {key} must be {what}, got {value!r}")


@dataclass
class _Draws:
    """The random draws of inference for fragments of up to `length` tokens.

    Inference seeds a fresh generator with config.seed for every fragment,
    so its draws depend only on the fragment's in-vocabulary length L: the
    initial vector, then epochs * L * k uniforms for the negatives. Those are
    a prefix of one longer stream, so one array of negative ids serves every
    L <= length. The epochs' learning rates depend only on the config too.
    """

    config: EmbedderConfig
    token_counts: np.ndarray
    length: int
    initial: np.ndarray  # n
    negatives: np.ndarray  # epochs * negative_samples * length token ids
    rates: list[np.ndarray]  # one per epoch, each a 0-d array (see _infer)

    def negatives_for(self, length: int) -> np.ndarray:
        """Each epoch's negative ids for an L-token fragment, (epochs, L * k)."""
        per_epoch = length * self.config.negative_samples
        return self.negatives[: self.config.epochs * per_epoch].reshape(self.config.epochs, per_epoch)


@dataclass
class ParagraphVectorModel:
    vocabulary: dict[str, int]
    word_matrix: np.ndarray  # |V| x n
    token_counts: np.ndarray  # |V|, for the noise distribution
    config: EmbedderConfig
    training_report: dict = field(default_factory=dict)
    doc_vectors: np.ndarray | None = None  # training-time only, not persisted
    draws: _Draws | None = field(default=None, init=False, repr=False, compare=False)  # not persisted


def cosine(a, b) -> float:
    """Standard cosine similarity; a zero vector (is_zero_norm) maps to 0.0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"cosine: length mismatch {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na * nb == 0.0:
        if is_zero_norm(a) or is_zero_norm(b):
            return 0.0
        # Norms that underflow: scaling each vector by its largest |entry| keeps the cosine.
        return cosine(a / np.abs(a).max(), b / np.abs(b).max())
    # Clamp: rounding (and denormal underflow) can push the ratio past +/-1.
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def is_zero_norm(v) -> bool:
    """Whether v has no nonzero entry; a nonzero v's norm can still underflow to 0."""
    return not np.asarray(v, dtype=float).any()


def euclidean_similarity(a, b) -> float:
    """Map euclidean distance d to (0, 1] via 1 / (1 + d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"euclidean_similarity: length mismatch {a.shape} vs {b.shape}")
    return float(1.0 / (1.0 + np.linalg.norm(a - b)))


def _sigmoid_inplace(y, above=None, below=None):
    """The sigmoid of the scores x = -y, for a float array y of negated
    scores, in place, with exact saturation beyond |x| = 8.

    Saturated pairs contribute a zero gradient, which keeps vector norms
    bounded over long training runs (the word2vec MAX_EXP convention).
    `above` and `below` are optional boolean buffers of y's shape, set
    where x is above 8 and below -8.

    The bits are those of the sigmoid of x clipped to [-8, 8], without the
    clip: inside it the clip is the identity (-0.0 and NaN included), and
    the masks overwrite every value outside it. The embedder keeps its
    document vectors negated, so its products give y and no np.negative is
    needed. Call it under np.errstate(over="ignore"): above y = 709 the exp
    overflows, before `below` overwrites the result. Training and inference
    call it once per document and epoch, so its operands are 0-d arrays and
    its outputs go by position.
    """
    above = np.less(y, _LOW, above)
    below = np.greater(y, _HIGH, below)
    np.exp(y, y)
    y += _ONE
    np.divide(_ONE, y, y)
    y[above] = _ONE
    y[below] = _ZERO
    return y


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
    """The unigram^0.75 noise distribution (Mikolov et al. 2013) as a CDF
    whose last entry is exactly 1.0. The rounded sum can end below 1, where
    a key in (cdf[-1], 1) would draw the id one past the vocabulary; keys
    up to cdf[-1] draw the same ids either way."""
    weights = freq**0.75
    cdf = np.minimum(np.cumsum(weights / weights.sum()), 1.0)
    cdf[-1] = 1.0
    return cdf


def _learning_rate(config: EmbedderConfig, epoch: int) -> float:
    # Linear decay to 10% of the initial rate by the final epoch.
    frac = epoch / max(config.epochs - 1, 1)
    return config.learning_rate * (1.0 - 0.9 * frac)


class _NoiseTable:
    """The noise CDF of token counts with a guide table (Chen & Asau 1974):
    the same ids as np.searchsorted over the CDF, about 7x faster.

    The guide has a power of two G >= 4V of buckets, so floor(key * G) is
    exact, and bucket b holds the first index whose CDF entry is at least
    b / G, a lower bound for every key of the bucket. A key takes its
    bucket's index, one step up if that is short, and a binary search if it
    is still short (a bucket spanning several entries, which few keys hit).
    """

    def __init__(self, token_counts: np.ndarray):
        self.cdf = _noise_cumulative(token_counts)
        buckets = 1 << (4 * len(self.cdf) - 1).bit_length()
        self.buckets = float(buckets)
        self.guide = np.searchsorted(self.cdf, np.arange(buckets) / buckets)

    def search(self, keys: np.ndarray, out=None) -> np.ndarray:
        """np.searchsorted(self.cdf, keys) for 1-D keys in [0, 1)."""
        ids = self.guide.take((keys * self.buckets).astype(np.intp), out=out)
        ids += self.cdf.take(ids) < keys
        short = self.cdf.take(ids) < keys
        if short.any():
            ids[short] = np.searchsorted(self.cdf, keys[short])
        return ids

    def sample(self, rng, shape, out=None) -> np.ndarray:
        """Token ids for the keys rng.random(shape), drawn and searched
        _DRAW_BLOCK at a time: the same stream as one draw. They go into
        `out`, a C-contiguous intp array of that shape, if one is given."""
        ids = np.empty(shape, dtype=np.intp) if out is None else out
        flat = ids.reshape(-1)
        keys = np.empty(min(flat.size, _DRAW_BLOCK))
        for a in range(0, flat.size, _DRAW_BLOCK):
            block = flat[a:a + _DRAW_BLOCK]
            self.search(rng.random(out=keys[:len(block)]), out=block)
        return ids


class _Epochs:
    """The training epochs' fixed layout, built once per training run.

    Every non-empty document owns one slice of `rows`: its T positive
    token ids, then its T*k negative ids, in document order. Positives are
    written once; each epoch writes its negative draw into the other slots.
    `coef` holds the scores of a whole epoch in the same layout.

    Each document is bound once, in `docs`, to the views that are its own:
    its negated vector, its slices of `rows` and `coef`, and the positive
    and negative parts of its `coef`. The scratch of a step, written before
    it is read, is shared: the gathered word rows, the update, the scatter
    positions and the saturation masks are one buffer each, as long as the
    longest document's slice and viewed once per document length, and the
    two gradient buffers serve every document.

    The word-matrix update is one scatter-add per document over a flat view
    of the matrix. With n even the view is complex128, one element per pair
    of floats: complex addition adds the real and imaginary parts on their
    own, so every float gets the same adds, in the same order, as over a
    float view. Row r of `positions` gives the flat view's elements of row r.
    """

    def __init__(self, word_matrix, negated, indexed, k: int):
        self.word_matrix = word_matrix
        vocab_size, n = word_matrix.shape
        self.dtype, width = (np.complex128, n // 2) if n % 2 == 0 else (np.float64, n)
        self.flat = word_matrix.reshape(-1).view(self.dtype)
        self.positions = np.arange(vocab_size * width).reshape(vocab_size, width)
        lengths = [len(pos_idx) for pos_idx in indexed]
        size = sum(lengths) * (1 + k)
        self.n_tokens = sum(lengths)
        self.rows, self.coef = np.empty(size, dtype=np.intp), np.empty(size)
        self.negative = np.ones(size, dtype=bool)
        longest = max(lengths, default=0) * (1 + k)
        vecs, update = np.empty((longest, n)), np.empty((longest, n))
        at = np.empty((longest, width), dtype=np.intp)
        above, below = np.empty(longest, dtype=bool), np.empty(longest, dtype=bool)
        self.grad, self.neg_grad = np.empty(n), np.empty(n)
        scratch = {}  # T -> the shared buffers' views for a T-token document
        self.docs = []
        start = 0
        for d, length in enumerate(lengths):
            if not length:
                continue
            split, stop = start + length, start + length * (1 + k)
            self.rows[start:split] = indexed[d]
            self.negative[start:split] = False
            if length not in scratch:
                m = stop - start
                scratch[length] = (vecs[:m], vecs[:length], vecs[length:m], update[:m],
                                   update[:m].view(self.dtype).reshape(-1), at[:m], at[:m].reshape(-1),
                                   above[:m], below[:m])
            coef = self.coef[start:stop]
            self.docs.append((negated[d], self.rows[start:stop], coef, coef[:length], coef[length:],
                              scratch[length]))
            start = stop

    def run(self, negatives, lr: np.ndarray, with_loss: bool) -> float:
        """One epoch, document by document, on the document vectors negated
        (the views of -doc_vectors bound in `docs`), with `negatives`
        (T_total, k) as its draw and the 0-d learning rate `lr`. Returns the
        summed pair loss if `with_loss`, else 0.0.

        Each document's gradients are computed against the current
        parameters and applied once; repeated rows of its scatter-add are
        applied in order, so each element gets its positive updates, then
        its negative ones, in token order. Negation and rounding are
        symmetric in sign, so (c * -v) * lr is the bits of (c * v) * -lr,
        and -v + step those of -(v - step) but for the sign of an exact zero,
        which changes no sigmoid output and no word row. The gathers take
        mode="clip", which writes into `out` directly (the default copies
        through a buffer); every id is in range, so it clips none.
        """
        self.rows[self.negative] = negatives.reshape(-1)
        gather, place, flat = self.word_matrix.take, self.positions.take, self.flat
        grad, neg_grad = self.grad, self.neg_grad
        total = 0.0
        for doc_vec, doc_rows, doc_coef, pos_coef, neg_coef, scratch in self.docs:
            vecs, pos_vecs, neg_vecs, update, update_flat, at, at_flat, above, below = scratch
            gather(doc_rows, 0, vecs, "clip")
            np.dot(pos_vecs, doc_vec, pos_coef)
            np.dot(neg_vecs, doc_vec, neg_coef)
            _sigmoid_inplace(doc_coef, above, below)
            if with_loss:
                # loss = -log sigma(pos) - sum log sigma(-neg)
                total += float(-np.log(np.maximum(pos_coef, 1e-12)).sum()
                               - np.log(np.maximum(1.0 - neg_coef, 1e-12)).sum())
            pos_coef -= _ONE
            np.dot(pos_coef, pos_vecs, grad)
            np.dot(neg_coef, neg_vecs, neg_grad)
            update[...] = doc_coef[:, None]
            update *= doc_vec
            update *= lr
            place(doc_rows, 0, at, "clip")
            np.add.at(flat, at_flat, update_flat)
            # doc_vec += lr * (grad + neg_grad), in the same bits
            grad += neg_grad
            grad *= lr
            doc_vec += grad
        return total


def train_embedder(documents, config: EmbedderConfig | None = None) -> ParagraphVectorModel:
    """Train document and word vectors over tokenized fragments.

    Deterministic under config.seed. Raises when the vocabulary is too small
    or the loss goes non-finite (learning rate too high).
    """
    config = config or EmbedderConfig()
    documents = [list(doc) for doc in documents]
    vocab, freq = _build_vocab(documents, config.min_token_count)
    if len(vocab) < 2:
        raise EmbeddingError(
            f"vocabulary has {len(vocab)} token(s) with count >= {config.min_token_count}; need at least 2"
        )
    noise = _NoiseTable(freq)
    indexed = [np.array([vocab[t] for t in doc if t in vocab], dtype=np.intp) for doc in documents]

    rng = np.random.default_rng(config.seed)
    negated = -rng.uniform(-0.5 / config.n, 0.5 / config.n, size=(len(documents), config.n))
    word_matrix = np.zeros((len(vocab), config.n), dtype=float)

    plan = _Epochs(word_matrix, negated, indexed, config.negative_samples)
    # One buffer for every epoch's draw of negative ids.
    negatives = np.empty((plan.n_tokens, config.negative_samples), dtype=np.intp)
    last = config.epochs - 1
    epoch_losses: list[float] = []
    # Divergence overflows the products; the checks below catch it instead.
    # _sigmoid_inplace needs over="ignore" for scores below -709.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            # One draw per epoch, sliced per document in order: the same
            # stream as a (len(doc), k) draw per document.
            noise.sample(rng, negatives.shape, out=negatives)
            # The report keeps the first and last epochs' loss; the others skip it.
            with_loss = epoch in (0, last)
            total = plan.run(negatives, np.array(_learning_rate(config, epoch)), with_loss)
            # Scores are clipped to [0, 1] by the sigmoid, so an epoch's loss
            # is non-finite exactly when one of its scores is NaN.
            if np.isnan(plan.coef).any():
                raise EmbeddingError(f"non-finite training loss at epoch {epoch}; lower the learning rate")
            if with_loss:
                epoch_losses.append(total / max(plan.n_tokens, 1))
    if not (np.isfinite(word_matrix).all() and np.isfinite(negated).all()):
        raise EmbeddingError(f"non-finite word or document vectors after epoch {last}; lower the learning rate")

    report = {
        "initial_loss": epoch_losses[0],
        "final_loss": epoch_losses[-1],
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
        doc_vectors=0.0 - negated,  # an exact zero is +0.0, as in v - step
    )


def _draws(model: ParagraphVectorModel, length: int) -> _Draws:
    """Draws covering fragments of `length` tokens: the model's draw cache,
    made to cover them if `length` is at most _DRAWS_MAX_TOKENS.

    The cache is rebuilt when it covers fewer, or when the model's config or
    token counts were replaced since it was built. Draws for a longer
    fragment are made for the call and leave the cache as it is.
    """
    draws = model.draws
    if (draws is None or draws.length < length or draws.config is not model.config
            or draws.token_counts is not model.token_counts):
        config = model.config
        rng = np.random.default_rng(config.seed)
        initial = rng.uniform(-0.5 / config.n, 0.5 / config.n, size=config.n)
        negatives = _NoiseTable(model.token_counts).sample(
            rng, config.epochs * config.negative_samples * length)
        rates = [np.array(_learning_rate(config, epoch)) for epoch in range(config.epochs)]
        draws = _Draws(config, model.token_counts, length, initial, negatives, rates)
        if length <= _DRAWS_MAX_TOKENS:
            model.draws = draws
    return draws


def _infer(model: ParagraphVectorModel, pos_idx: np.ndarray) -> np.ndarray:
    """The inference epochs for one fragment's token ids (L,), giving its
    vector (n,), or for a stack of same-length fragments (B, L), giving (B, n).

    One fragment's products are np.dot on 1-D vectors. A stack's are
    np.matmul on (1, n) row and (n, 1) column views, one matrix-vector
    product per fragment. Both end in the same BLAS gemv, so each vector has
    the same bits as when inferred alone; np.dot only dispatches faster. The
    stack shares each epoch's negative rows. Zero-padding ragged fragments
    into one stack would change the bits.

    The vector is held negated, as in training (see _Epochs.run), and the
    result is 0.0 - vec, so that an exact zero is +0.0. EmbeddingError if
    the result is not finite.
    """
    config, word_matrix = model.config, model.word_matrix
    length = pos_idx.shape[-1]
    draws = _draws(model, length)
    negatives = draws.negatives_for(length)
    pos_vecs = word_matrix[pos_idx]  # ([B,] L, n)
    rows = length + negatives.shape[1]
    if pos_idx.ndim == 1:
        product, vec = np.dot, np.negative(draws.initial)
        col, scores = vec, np.empty(rows)
        pos_scores = pos_coef = scores[:length]
        neg_scores = neg_coef = scores[length:]
    else:
        product, vec = np.matmul, np.empty(pos_idx.shape[:-1] + (1, config.n))
        np.negative(draws.initial, out=vec)
        col, scores = vec.swapaxes(-1, -2), np.empty(pos_idx.shape[:-1] + (rows, 1))
        pos_scores, neg_scores = scores[..., :length, :], scores[..., length:, :]
        pos_coef, neg_coef = pos_scores.swapaxes(-1, -2), neg_scores.swapaxes(-1, -2)
    above, below = np.empty(scores.shape, dtype=bool), np.empty(scores.shape, dtype=bool)
    grad, neg_grad = np.empty_like(vec), np.empty_like(vec)
    # Every call in the loop costs about as much as its arithmetic, so the
    # gather is bound once, outputs go by position and the learning rates
    # are 0-d arrays (see _ZERO).
    take = word_matrix.take
    # A diverging vector overflows the products; the check below catches it.
    # The sigmoid needs over="ignore" for negated scores above 709.
    with np.errstate(over="ignore", invalid="ignore"):
        for neg_idx, rate in zip(negatives, draws.rates):
            neg_vecs = take(neg_idx, 0)
            product(pos_vecs, col, pos_scores)
            product(neg_vecs, col, neg_scores)
            _sigmoid_inplace(scores, above, below)
            pos_scores -= _ONE
            # Two vector-matrix products: one over positives and negatives
            # together would sum in another order.
            product(pos_coef, pos_vecs, grad)
            product(neg_coef, neg_vecs, neg_grad)
            grad += neg_grad
            grad *= rate
            vec += grad
    vec = np.subtract(0.0, vec if pos_idx.ndim == 1 else vec[..., 0, :])
    if not np.isfinite(vec).all():
        raise EmbeddingError("non-finite inferred vector; lower the learning rate")
    return vec


def _ids(model: ParagraphVectorModel, tokens) -> np.ndarray:
    """The vocabulary ids of a fragment's known tokens, in order."""
    vocab = model.vocabulary
    return np.array([vocab[t] for t in tokens if t in vocab], dtype=np.intp)


def _infer_vectors(model: ParagraphVectorModel, token_lists) -> tuple[np.ndarray, list[bool]]:
    """infer_vector over many token lists: (vectors, all_oov_flags), one
    row per list in input order. Same-length lists are inferred in stacks,
    and each gets the bits it gets alone.

    The stacks are cut into two parts of about equal tokens, which
    worker.halves runs side by side from worker.INFER_TOKEN_EPOCHS tokens x
    epochs up: the worker sends its part's vectors back as one array, in
    stack order. The draw cache is grown before, so both parts share it.
    """
    config = model.config
    ids = [_ids(model, tokens) for tokens in token_lists]
    vectors = np.zeros((len(ids), config.n))
    by_length: dict[int, list[int]] = {}
    for i, pos_idx in enumerate(ids):
        if len(pos_idx):
            by_length.setdefault(len(pos_idx), []).append(i)
    cached = [length for length in by_length if length <= _DRAWS_MAX_TOKENS]
    if cached:
        _draws(model, max(cached))  # grow the cache once, to the longest it holds
    stacks = []
    for length, members in by_length.items():
        per_stack = max(1, _STACK_BYTES // (8 * length * (config.n + config.negative_samples + 1)))
        stacks += (members[start:start + per_stack] for start in range(0, len(members), per_stack))
    if stacks:
        tokens = np.cumsum([len(stack) * len(ids[stack[0]]) for stack in stacks])
        cut = int(np.abs(2 * tokens - tokens[-1]).argmin()) + 1
        parts = (stacks[:cut], stacks[cut:])

        def run(items):  # the vectors of parts items, one row per fragment in stack order
            chosen = [stack for part in items for stack in parts[part]]
            out, row = np.empty((sum(map(len, chosen)), config.n)), 0
            for stack in chosen:
                rows = ids[stack[0]] if len(stack) == 1 else np.stack([ids[i] for i in stack])
                out[row:row + len(stack)] = _infer(model, rows)
                row += len(stack)
            return out
        # One stack is one part, which no worker could share.
        inferred = worker.halves(run, 1 + (cut < len(stacks)), int(tokens[-1]) * config.epochs,
                                 worker.INFER_TOKEN_EPOCHS)
        vectors[[i for stack in stacks for i in stack]] = np.concatenate(inferred)
    return vectors, [len(pos_idx) == 0 for pos_idx in ids]


def infer_vector(model: ParagraphVectorModel, tokens) -> tuple[np.ndarray, bool]:
    """Infer a vector for a token list against the frozen word matrix.

    Returns (vector, all_oov_flag). Empty or fully out-of-vocabulary input
    yields the zero vector with the flag set. The vector depends only on the
    model and the tokens.
    """
    pos_idx = _ids(model, tokens)
    if not len(pos_idx):
        return np.zeros(model.config.n), True
    return _infer(model, pos_idx), False


def save_model(model: ParagraphVectorModel, path) -> None:
    fileio.write(path, {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "ParagraphVectorModel",
        "vocabulary": model.vocabulary,
        "word_matrix": model.word_matrix.tolist(),
        "token_counts": model.token_counts.tolist(),
        "config": asdict(model.config),
        "training_report": model.training_report,
    })


def load_model(path) -> ParagraphVectorModel:
    doc = fileio.read_object(path, EmbeddingError, "paragraph-vector model file")
    fileio.model_kind(doc, path, EmbeddingError, ("ParagraphVectorModel",), MODEL_FORMAT_VERSION)
    try:
        model = ParagraphVectorModel(
            vocabulary={**doc["vocabulary"]},
            word_matrix=fileio.numbers(doc["word_matrix"], "word_matrix"),
            token_counts=fileio.numbers(doc["token_counts"], "token_counts"),
            config=EmbedderConfig(**doc["config"]),
            training_report=doc.get("training_report", {}),
        )
    except EmbeddingError as exc:
        raise EmbeddingError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise EmbeddingError(f"{path}: malformed paragraph-vector model: {exc!r}") from exc
    size, n = len(model.vocabulary), model.config.n
    try:
        ids = np.sort(fileio.numbers(list(model.vocabulary.values()), "vocabulary ids", integer=True))
    except ValueError:  # not integers, so not 0..size - 1 either
        ids = None
    if ids is None or not np.array_equal(ids, np.arange(size)):
        problem = f"vocabulary ids are not exactly 0..{size - 1}"
    elif model.word_matrix.shape != (size, n):
        problem = f"word_matrix is {model.word_matrix.shape}, expected ({size}, {n})"
    elif model.token_counts.shape != (size,):
        problem = f"token_counts has shape {model.token_counts.shape}, expected ({size},)"
    elif not np.all(model.token_counts > 0):
        problem = "token_counts must be positive"
    else:
        return model
    raise EmbeddingError(f"{path}: inconsistent paragraph-vector model: {problem}")


def import_embeddings(path) -> list[EmbeddingPair]:
    """Read externally produced vectors: JSONL of patch_id/buggy_vec/patched_vec.

    Every patch_id must be a non-empty string, and every vector a list of
    numbers (fileio.numbers) of one dimension, taken from the first record,
    and the sums of squares of both vectors and of their difference must be
    finite, so every crossed value, cosine and distance of the pair is.
    Vectors are used as-is, without re-normalization.
    """
    pairs: list[EmbeddingPair] = []
    n: int | None = None
    for lineno, obj in fileio.read_lines(path):
        where = f"{path} line {lineno}"
        if isinstance(obj, ValueError):
            raise EmbeddingError(f"{where}: invalid JSON: {obj}")
        try:
            patch_id, vectors = obj["patch_id"], {key: obj[key] for key in ("buggy_vec", "patched_vec")}
            if not (isinstance(patch_id, str) and patch_id):
                raise ValueError(f"patch_id must be a non-empty string, not {patch_id!r}")
            patch_id.encode("utf-8")  # a lone surrogate escape such as \ud800 is not UTF-8 text
            try:  # both vectors in one call; if that fails, one at a time, to name the bad one
                both = vectors["buggy_vec"] + vectors["patched_vec"]
                both = fileio.numbers(both, "vectors", (len(both),))
                buggy, patched = both[:len(vectors["buggy_vec"])], both[len(vectors["buggy_vec"]):]
            except (TypeError, ValueError):
                buggy, patched = (fileio.numbers(v, key, (len(v),)) for key, v in vectors.items())
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingError(f"{where}: malformed record: {exc}") from exc
        if n is None:
            n = len(buggy)
            if n == 0:
                raise EmbeddingError(f"{where}: empty vector")
        if len(buggy) != n or len(patched) != n:
            raise EmbeddingError(
                f"{where}: patch {patch_id!r} has vector length {len(buggy)}/{len(patched)}, expected {n}")
        with np.errstate(over="ignore"):  # a sum of squares that overflows is inf, and refused
            if not all(np.isfinite(v @ v) for v in (buggy, patched, patched - buggy)):
                raise EmbeddingError(f"{where}: patch {patch_id!r}: the sums of squares of buggy_vec, "
                                     f"patched_vec and their difference must be finite")
        pairs.append(EmbeddingPair(patch_id, buggy, patched, provider="imported", n=n))
    if not pairs:
        raise EmbeddingError(f"no embedding records in {path}")
    return pairs


def export_embeddings(pairs, path) -> None:
    fileio.write_lines(path, ({"patch_id": pair.patch_id,
                               "buggy_vec": [float(x) for x in pair.buggy_vec],
                               "patched_vec": [float(x) for x in pair.patched_vec]} for pair in pairs))


def embed_corpus(model: ParagraphVectorModel, fragments_by_patch):
    """Embed {patch_id: FragmentPair} into EmbeddingPairs, in input order.

    Returns (pairs, flagged_patch_ids) where flagged ids had an empty or
    all-OOV side embedded as the zero vector.
    """
    frags = fragments_by_patch.values()
    vectors, oov = _infer_vectors(model, [tokens for frag in frags
                                          for tokens in (frag.buggy_tokens, frag.patched_tokens)])
    pairs = [EmbeddingPair(patch_id, vectors[2 * i], vectors[2 * i + 1], provider="builtin", n=model.config.n)
             for i, patch_id in enumerate(fragments_by_patch)]
    flagged = [patch_id for i, patch_id in enumerate(fragments_by_patch) if oov[2 * i] or oov[2 * i + 1]]
    return pairs, flagged
