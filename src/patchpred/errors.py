"""Exception hierarchy shared across the toolkit."""


class PatchPredError(Exception):
    """Base class; carries a category name used by the CLI for exit reporting."""

    category = "error"


class CorpusError(PatchPredError):
    category = "corpus"


class DiffParseError(PatchPredError):
    category = "diffparse"


class EmbeddingError(PatchPredError):
    category = "embed"


class FeatureError(PatchPredError):
    category = "features"


class TrainError(PatchPredError):
    category = "learn"


class EvalError(PatchPredError):
    category = "eval"


class ExplainError(PatchPredError):
    category = "explain"


class UsageError(PatchPredError):
    category = "usage"
