"""In-memory trace spans recorded around calls into patchpred, and their
reduction to per-layer metrics.

A span has a name `<module>.<op>`, start and end times, the span that was
open when it started, a trace id (one per pipeline pass or per scored
patch) and counts recorded at the same boundary. Spans stay in memory and
are written out once, when the run ends. With tracing off, `span` returns a
shared no-op context so the untraced run pays almost nothing.
"""

from __future__ import annotations

import json
import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        rec = self.record
        rec["parent"] = tracer._open[-1]["id"] if tracer._open else None
        tracer._open.append(rec)
        rec["start"] = time.perf_counter()
        return rec["counts"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Tracer:
    """Collects spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.trace_id = "setup"

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        rec = {"id": len(self.spans), "name": name, "trace": self.trace_id, "counts": counts}
        self.spans.append(rec)
        return _Span(self, rec)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Mean cost of opening and closing one span, measured on a scratch tracer."""
    scratch = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with scratch.span("calibrate", n=1) as c:
            c["n"] = 1
    return (time.perf_counter() - start) / samples


def self_times(spans) -> tuple[dict[int, float], dict[int, float]]:
    """Per span id: (duration, duration minus the time its children cover)."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(duration)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration[s["id"]]
    return duration, own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json.

    Busy time is the self time of the spans around calls into a module; the
    one exception is `evaluate.crossval.busy_s`, which is the whole
    cross-validation and splits into the fit and predict calls it makes
    (timed from outside) and its own overhead.
    """
    duration, own = self_times(spans)
    busy: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for s in spans:
        busy[s["name"]] = busy.get(s["name"], 0.0) + own[s["id"]]
        bucket = counts.setdefault(s["name"], {})
        for key, value in s["counts"].items():
            bucket[key] = bucket.get(key, 0) + value

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}

    epochs = c("embed.train", "epochs")
    m["embed.train.epochs"] = (epochs, "count")
    m["embed.train.token_steps"] = (c("embed.train", "token_steps"), "count")
    m["embed.train.busy_s"] = (b("embed.train"), "s")
    m["embed.train.s_per_epoch"] = (_ratio(b("embed.train"), epochs), "s")
    frags = c("embed.infer", "fragments")
    m["embed.infer.fragments"] = (frags, "count")
    m["embed.infer.oov_fragments"] = (c("embed.infer", "oov_fragments"), "count")
    m["embed.infer.busy_s"] = (b("embed.infer"), "s")
    m["embed.infer.ms_per_fragment"] = (_ratio(b("embed.infer"), frags, 1e3), "ms")
    m["embed.io.bytes"] = (c("embed.io", "bytes"), "bytes")
    m["embed.io.busy_s"] = (b("embed.io"), "s")
    m["embed.import.records"] = (c("embed.import", "records"), "count")
    m["embed.import.busy_s"] = (b("embed.import"), "s")

    for layer, span, noun, per in (("diffparse", "diffparse.fragments", "patches", "patch"),
                                   ("crossing", "crossing.cross", "pairs", "pair"),
                                   ("engineered", "engineered.extract", "patches", "patch")):
        n = c(span, noun)
        m[f"{layer}.{noun}"] = (n, "count")
        m[f"{layer}.busy_s"] = (b(span), "s")
        m[f"{layer}.us_per_{per}"] = (_ratio(b(span), n, 1e6), "us")

    m["corpus.ingest.records"] = (c("corpus.ingest", "records"), "count")
    m["corpus.ingest.busy_s"] = (b("corpus.ingest"), "s")
    m["combine.concat.rows"] = (c("combine.concat", "rows"), "count")
    m["combine.concat.busy_s"] = (b("combine.concat"), "s")
    m["featureio.rows"] = (c("featureio.write", "rows") + c("featureio.read", "rows"), "count")
    m["featureio.bytes"] = (c("featureio.write", "bytes") + c("featureio.read", "bytes"), "bytes")
    m["featureio.busy_s"] = (b("featureio.write", "featureio.read"), "s")

    for suffix, names in (("", ("learn.fit.gbt", "learn.fit.rf")),
                          (".gbt", ("learn.fit.gbt",)), (".rf", ("learn.fit.rf",))):
        calls = sum(c(n, "calls") for n in names)
        trees = sum(c(n, "trees") for n in names)
        nodes = sum(c(n, "nodes") for n in names)
        fit_busy = b(*names)
        m[f"learn.fit{suffix}.calls"] = (calls, "count")
        m[f"learn.fit{suffix}.busy_s"] = (fit_busy, "s")
        m[f"learn.fit{suffix}.trees"] = (trees, "count")
        m[f"learn.fit{suffix}.nodes"] = (nodes, "count")
        m[f"learn.fit{suffix}.nodes_per_tree"] = (_ratio(nodes, trees), "count")
        m[f"learn.fit{suffix}.ms_per_node"] = (_ratio(fit_busy, nodes, 1e3), "ms")
    m["learn.predict.rows"] = (c("learn.predict", "rows"), "count")
    m["learn.predict.busy_s"] = (b("learn.predict"), "s")
    m["learn.predict.us_per_row_tree"] = (_ratio(b("learn.predict"), c("learn.predict", "row_trees"), 1e6), "us")
    m["learn.io.bytes"] = (c("learn.io", "bytes"), "bytes")
    m["learn.io.busy_s"] = (b("learn.io"), "s")

    cv_ids = {s["id"] for s in spans if s["name"] == "evaluate.crossval"}
    fit_s = sum(duration[s["id"]] for s in spans
                if s["parent"] in cv_ids and s["name"].startswith("learn.fit"))
    predict_s = sum(duration[s["id"]] for s in spans
                    if s["parent"] in cv_ids and s["name"] == "learn.predict")
    m["evaluate.crossval.folds"] = (c("evaluate.crossval", "folds"), "count")
    m["evaluate.crossval.busy_s"] = (sum(duration[i] for i in cv_ids), "s")
    m["evaluate.crossval.fit_s"] = (fit_s, "s")
    m["evaluate.crossval.predict_s"] = (predict_s, "s")
    m["evaluate.crossval.overhead_s"] = (b("evaluate.crossval"), "s")

    rows = c("explain.instance", "rows")
    m["explain.rows"] = (rows, "count")
    m["explain.trees"] = (c("explain.instance", "trees"), "count")
    m["explain.busy_s"] = (b("explain.instance"), "s")
    m["explain.global.busy_s"] = (b("explain.global"), "s")
    m["explain.us_per_row_tree"] = (_ratio(b("explain.instance"), c("explain.instance", "row_trees"), 1e6), "us")

    m["trace.overhead_s"] = (overhead_s, "s")
    return m
