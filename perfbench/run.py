"""patchpred benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics, reduced from spans recorded around every call into
patchpred. The gated times, `setup_s` and `pipeline_s`, are given at a
fixed nominal host speed, measured by samples taken through the run
(hostspeed.py). The line before it is a JSON report with the environment,
every stage metric that applies to the workload (wall times among them), the
artifact hashes, the correctness failures and the known-defect probes.
Scratch files, the report and the spans go under `.bench_out/` at the root
of the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one client drives all the load, and the
# matrices are small enough that BLAS threads only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# Set-up runs this many times per untraced run and setup_s is the median.
# Triage sets up once: its set-up trains the embedder (~15 s).
SETUP_REPEATS = {"walkthrough": 5, "paper_scale": 5, "triage": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SETUP_REPEATS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed pass until this much time has passed (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test; results at that size are not comparable")
    return parser.parse_args(argv)


def source_digest() -> str:
    """Hash of the program and benchmark sources, keying the artifact record."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "**" / "*.py"), recursive=True)
                       + glob.glob(str(BENCH_DIR / "*.py"))):
        h.update(Path(path).relative_to(ROOT).as_posix().encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads_in_use() -> int | None:
    """Ask the OpenBLAS bundled with numpy how many threads it will use."""
    import numpy as np
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": BLAS_THREADS, "threads_in_use": blas_threads_in_use()},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compare_with_record(run, workload: str, scale: str, seed: int, digest: str) -> None:
    """Artifacts must be byte-identical across runs under one seed. The first
    run of a (workload, scale, seed, source) records them; later runs compare."""
    record = OUT_DIR / "artifacts" / f"{workload}-{scale}-seed{seed}-{digest[:16]}.json"
    if record.is_file():
        previous = json.loads(record.read_text())
    else:
        previous = run.artifacts
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(run.artifacts, sort_keys=True))
        os.replace(tmp, record)
    for name, value in sorted(run.artifacts.items()):
        run.check(previous.get(name) == value, f"{name} differs from an earlier run with this seed")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import patchpred
    except ImportError as exc:
        print(f"perfbench: cannot import patchpred from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(patchpred.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: patchpred came from {patchpred.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads as wl
    import_end = time.perf_counter()

    workload, seed = args.workload, args.seed
    traced = bool(args.trace)
    tracer = spans.Tracer(traced)
    # A traced run takes no samples, so that its spans hold only patchpred's work.
    speed = hostspeed.HostSpeed(enabled=not traced)
    work = OUT_DIR / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = wl.Run(tracer=tracer, speed=speed, work=work, params=wl.SCALES[args.scale][workload], seed=seed)
    try:
        with speed:
            # --- set-up ---
            repeats = 1 if traced else SETUP_REPEATS[workload]
            setup, timed_pass = wl.WORKLOADS[workload]
            # A set-up can be shorter than the sampling period, so samples
            # are also taken on each side of it.
            speed.sample(hostspeed.NEAR)
            setup_times, setup_spans = [], []
            for _ in range(repeats):
                run.times = {}
                mark = speed.mark()
                input_digest, state = setup(run)
                setup_times.append(speed.since(mark))
                setup_spans.append((mark[0], time.perf_counter()))
                speed.sample(hostspeed.NEAR)
            setup_timers = run.times

            # --- timed passes ---
            pass_times, pass_spans, pass_timers, results = [], [], [], []
            run_start = time.perf_counter()
            while True:
                tracer.trace_id = f"{workload}-pass{len(pass_times)}"
                run.times = {}
                mark = speed.mark()
                res = timed_pass(run, state)
                pass_times.append(speed.since(mark))
                pass_spans.append((mark[0], time.perf_counter()))
                pass_timers.append(run.times)
                results.append(res)
                if time.perf_counter() - run_start >= args.seconds:
                    break
            aucs = {r["auc"] for r in results}
            run.check(len(aucs) == 1, f"AUC differs between passes of one run: {sorted(aucs)}")
            compare_with_record(run, workload, args.scale, seed, source_digest())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def timer(name):
        per_pass = [t[name] for t in pass_timers if name in t]
        return wl.median(per_pass) if per_pass else setup_timers[name]

    def nominal(seconds, span):
        return seconds / speed.slowdown(*span)

    import_s = import_end - import_start
    auc = results[0]["auc"]
    end_to_end = {
        "setup_s": (nominal(import_s, (import_start, import_end))
                    + wl.median([nominal(t, s) for t, s in zip(setup_times, setup_spans)]), "s"),
        "pipeline_s": (wl.median([nominal(t, s) for t, s in zip(pass_times, pass_spans)]), "s"),
        "auc": (auc, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    stages = dict(end_to_end)
    stages["setup_wall_s"] = (import_s + wl.median(setup_times), "s")
    stages["pipeline_wall_s"] = (wl.median(pass_times), "s")
    stages["host_slowdown"] = (wl.median([speed.slowdown(*s) for s in pass_spans]), "ratio")
    stages["host_samples"] = (len(speed.samples), "count")
    stages["gbt_fit_s"] = (timer("gbt_fit_s"), "s")
    if workload == "walkthrough":
        stages["train_embedder_s"] = (timer("train_embedder_s"), "s")
        stages["embed_s"] = (timer("embed_s"), "s")
        stages["crossval_s"] = (timer("crossval_s"), "s")
        stages["explain_rows_per_s"] = (wl.median([r["explain_rows_per_s"] for r in results]), "rows/s")
    if workload == "paper_scale":
        stages["rf_fit_s"] = (timer("rf_fit_s"), "s")
    if workload == "triage":
        lat = numpy.concatenate([r["latencies_ms"] for r in results])
        stages["train_embedder_s"] = (timer("train_embedder_s"), "s")
        stages["score_patches_per_s"] = (wl.median([r["score_patches_per_s"] for r in results]), "patches/s")
        for q in (50, 90, 99):
            stages[f"score_p{q}_ms"] = (float(numpy.percentile(lat, q)), "ms")
        stages["score_samples"] = (len(lat), "count")

    if traced:
        overhead = spans.span_cost_s() * len(tracer.spans)
        metrics = spans.layer_metrics(tracer.spans, overhead)
        probes_failed = sum(not p["passed"] for p in run.probes)
        metrics["ops.attempted"] = (run.attempted, "count")
        metrics["ops.failed"] = (run.failed, "count")
        metrics["probe.attempted"] = (len(run.probes), "count")
        metrics["probe.failed"] = (probes_failed, "count")
        tracer.write(OUT_DIR / f"trace-{workload}-{args.scale}-seed{seed}.jsonl")
    else:
        metrics = end_to_end

    report = {
        "workload": workload, "seed": seed, "scale": args.scale, "trace": args.trace,
        "passes": len(pass_times), "setups": len(setup_times),
        "sampling_s": speed.spent_s,
        "input_digest": input_digest,
        "environment": environment(seed),
        "stages": {name: {"value": v, "unit": u} for name, (v, u) in stages.items()},
        "artifacts": run.artifacts,
        "check_failures": run.failures,
        "probes": run.probes,
    }
    (OUT_DIR / f"report-{workload}-{args.scale}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
