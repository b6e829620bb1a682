"""Minimal-size self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` parses and names exactly the workloads
and metrics the runner produces, that the tracer leaves results
unchanged and restores every original, that each workload's
correctness checks pass on real outputs and fire on corrupted ones, and
that the runner refuses a directory without the analyzer.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

FAILURES = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def selftest_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract keys",
    )
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "every workload is listed")
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END], "every end-to-end metric is listed")
    check([m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER], "every per-layer metric is listed")
    units = dict(run.END_TO_END + PER_LAYER)
    check(all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"]), "units match")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds are within (0, 0.25]")
    check(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")
    reference = json.loads(workloads.REFERENCE.read_text())
    tally = {}
    for row in reference["verdicts"]:
        tally[row["classification"]] = tally.get(row["classification"], 0) + 1
    check(
        tally == {"infeasible": 71, "sound": 129} and reference["counts"]["violation"] == 0,
        "fuzz reference reads 71 infeasible / 129 sound",
    )


def selftest_tracer_is_transparent() -> None:
    import repro.analysis.tails as tails
    import repro.core.synthesis as synthesis
    from repro.api import Analyzer

    original = synthesis.synthesize
    plain = Analyzer().analyze("rdwalk", degree="auto", tails=True).to_dict()
    tracer = Tracer()
    tracer.install()
    try:
        check(tails.synthesize is not original, "wrapper replaces a directly imported name")
        traced = Analyzer().analyze("rdwalk", degree="auto", tails=True).to_dict()
    finally:
        tracer.uninstall()
    check(synthesis.synthesize is original and tails.synthesize is original, "uninstall restores every original")
    check(workloads.strip_runtime(plain) == workloads.strip_runtime(traced), "traced report equals untraced report")
    metrics = layer_metrics(tracer.spans, 1, 0, 1.0)
    check(metrics["lp.calls"] > 0 and metrics["synthesis.calls"] > 0, "spans reach the LP and synthesis layers")
    check(set(metrics) == {n for n, _ in PER_LAYER}, "layer_metrics yields every per-layer metric")


def selftest_fuzz_checks() -> None:
    from repro.fuzz import Harness

    bench = workloads.FuzzOctagon(0, ROOT, None)
    sound = [row["seed"] for row in bench.reference["verdicts"] if row["classification"] == "sound"][:4]
    bench.order = sound
    check(not bench.verify(bench.run(0, min_passes=1)), "fuzz-octagon passes on real verdicts")
    bench.harness = Harness(invariant_domain="octagon", defect="weaken-upper")
    errors = bench.verify(bench.run(0, min_passes=1))
    check(any("violation" in e for e in errors), "fuzz-octagon flags the weaken-upper defect")


def selftest_registry_checks() -> None:
    bench = workloads.RegistrySweep(0, ROOT, None)
    bench.requests = [r for r in bench.requests if r.benchmark in ("rdwalk", "race", "ber")]
    timed = bench.run(0, min_passes=1)
    check(not bench.verify(timed), "registry-sweep passes on real reports")
    key = next(k for k in timed.outputs if k.startswith("rdwalk@"))
    report = json.loads(timed.outputs[key])
    report["upper_value"] = report["upper_value"] * 0.5
    timed.outputs[key] = json.dumps(report, sort_keys=True)
    errors = bench.verify(timed)
    check(any("golden" in e for e in errors), "registry-sweep flags a bound that differs from the golden file")
    check(any("simulated mean" in e for e in errors), "registry-sweep flags an upper bound below the simulated mean")


def selftest_service_checks() -> None:
    work = ROOT / ".perfbench" / "work" / "self-test-service"
    bench = workloads.ServiceMixed(0, ROOT, work)
    try:
        timed = bench.run(0, min_passes=1)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    check(timed.ops > 0 and not bench.verify(timed), "service-mixed passes on real responses")
    key = next(iter(timed.outputs))
    report = json.loads(timed.outputs[key])
    report["degree"] = 99
    timed.outputs[key] = json.dumps(report, sort_keys=True)
    bench.expected.clear()
    check(any("in-process" in e for e in bench.verify(timed)), "service-mixed flags a response that differs in-process")
    check(
        run.compare_outputs(workloads.Timed(outputs={1: "a"}), workloads.Timed(outputs={1: "b"})),
        "traced/untraced comparison flags a changed output",
    )


def selftest_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench" / "work" / "self-test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "registry-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "runner exits non-zero and prints no result without the analyzer")


def main() -> int:
    for case in (
        selftest_benchmark_json,
        selftest_tracer_is_transparent,
        selftest_fuzz_checks,
        selftest_registry_checks,
        selftest_service_checks,
        selftest_bare_directory_fails,
    ):
        case()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
