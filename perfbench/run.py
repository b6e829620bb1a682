"""Analyzer benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz-octagon --seed 0 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced over the same passes (for
``service-mixed`` against a server started through ``serve_traced.py``), checks
that both produce the same outputs, and prints every per-layer metric.
Each metric is printed as ``name value unit`` and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 400, "failed": 0, "metrics": {...}}

The exit code is 0 when every correctness check passed, 1 when one
failed (the JSON still prints, with ``"correct": false``) and 2 when
the checkout holds no analyzer to benchmark.  Results, provenance and
spans are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Set-up is timed this many times per run (fresh processes); the
#: median is reported.
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_p50_s", "s"),
    ("warm_p50_s", "s"),
)


def p90(values: List[float]) -> float:
    """The 90th percentile, interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def provenance(args, sizes) -> Dict[str, object]:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def time_setup(args) -> float:
    """Median wall time from spawning a fresh process until it reports
    that the workload's first op could be issued."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(samples)


def end_to_end(timed, setup_s: float, rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(timed.pass_rates),
        "latency_p50_s": timed.pass_median(),
        "latency_p90_s": p90(timed.latencies),
        "peak_rss_mb": rss_mb,
        "cold_p50_s": timed.pass_median(cold=True),
        "warm_p50_s": timed.pass_median(cold=False),
    }


def compare_outputs(base, traced) -> List[str]:
    """Traced outputs must equal untraced ones, key by key."""
    errors = []
    if set(base.outputs) != set(traced.outputs):
        errors.append("traced run produced a different set of op keys")
    for key in set(base.outputs) & set(traced.outputs):
        if base.outputs[key] != traced.outputs[key]:
            errors.append(f"{key}: traced output differs from untraced output")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fuzz-octagon", "registry-sweep", "service-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no analyzer sources (src/repro, tests/golden) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import PER_LAYER, Tracer, dump_spans, layer_metrics
    from workloads import WORKLOADS

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload = cls(args.seed, ROOT, work)
        print("ready", flush=True)
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_s = time_setup(args)
    workload = cls(args.seed, ROOT, work)
    service = args.workload == "service-mixed"
    try:
        if args.trace == 0:
            timed = workload.run(args.seconds)
            rss_mb = timed.peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            errors = workload.verify(timed)
            metrics = end_to_end(timed, setup_s, rss_mb)
            units = dict(END_TO_END)
        else:
            base = workload.run(args.seconds / 2, min_passes=1)
            tracer = Tracer()
            if service:
                workload.trace_server()
            else:
                tracer.install()
            try:
                traced = workload.run(args.seconds / 2, replay=base, tracer=tracer, min_passes=1)
            finally:
                tracer.uninstall()
            workload.close()
            spans = workload.spans if service else tracer.spans
            throttled = workload.throttled if service else 0
            errors = workload.verify(base) + traced.errors + compare_outputs(base, traced)
            overhead = (traced.wall / traced.ops) / (base.wall / base.ops)
            metrics = layer_metrics(spans, traced.ops, throttled, overhead)
            units = dict(PER_LAYER)
            OUT.mkdir(parents=True, exist_ok=True)
            dump_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"), spans)
            timed = base
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": timed.ops,
        "failed": timed.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance(args, workload.sizes), errors=errors[:50])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ops={timed.ops} failed={timed.failed} failed_ratio={timed.failed / timed.ops:.4g}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
