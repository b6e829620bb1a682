"""The three benchmark workloads: set-up, timed closed loop, checks.

Each workload is a class with the same shape:

* the constructor is the set-up (imports done, inputs built from the
  seed, and for ``service-mixed`` the server running); everything it
  does counts towards ``setup_s``;
* :meth:`run` times ops in whole passes until ``seconds`` have passed
  and returns a :class:`Timed`; given ``replay`` (an earlier Timed) it
  runs exactly that many passes instead, which the traced run uses to
  repeat the untraced run's ops;
* :meth:`verify` returns the correctness failures of a timed run
  (empty when every output is right).

An op is one fuzz seed's verdict, one registry task, or one HTTP
response.  ``Timed.outputs`` maps each op key to its output with
run-time fields removed, so a traced run can be compared with an
untraced one key by key.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracing import load_spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "fuzz_octagon.json"

#: How many standard errors the Monte-Carlo bracket allows.
SIGMAS = 5.0
#: Monte-Carlo runs per benchmark for the bracket (default 1000).
#: These three have trajectories one to two orders of magnitude longer
#: than the rest; fewer runs keep the check to about a second each, and
#: the 5-sigma margin widens with the smaller sample.
BRACKET_RUNS: Dict[str, int] = {"bitcoin_pool": 50, "nested_loop": 100, "robot_2d": 200}


@dataclass
class Timed:
    """What one timed run measured and produced."""

    latencies: List[float] = field(default_factory=list)
    #: Per op: True when the op is cold (nothing cached for its key).
    cold: List[bool] = field(default_factory=list)
    #: Wall time of the passes, summed.
    wall: float = 0.0
    passes: int = 0
    #: Ops per second of each pass.
    pass_rates: List[float] = field(default_factory=list)
    #: Op count at the end of each pass.
    pass_ends: List[int] = field(default_factory=list)
    failed: int = 0
    #: op key -> output (run-time fields removed).
    outputs: Dict[Any, Any] = field(default_factory=dict)
    #: Correctness failures found while running.
    errors: List[str] = field(default_factory=list)
    #: Peak RSS of the server processes (service-mixed only).
    peak_rss_mb: Optional[float] = None

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def end_pass(self, elapsed: float, ops: int) -> None:
        """Record a pass of ``ops`` ops that took ``elapsed`` seconds."""
        self.wall += elapsed
        self.pass_rates.append(ops / elapsed)
        self.pass_ends.append(self.ops)
        self.passes += 1

    def pass_median(self, cold: Optional[bool] = None) -> float:
        """Median over the passes of each pass's median latency, over
        all ops or only the cold (``True``) or warm (``False``) ones; a
        burst of outside load then moves one pass, not the figure."""
        medians = []
        start = 0
        for end in self.pass_ends:
            values = [
                self.latencies[index]
                for index in range(start, end)
                if cold is None or self.cold[index] == cold
            ]
            if values:
                medians.append(statistics.median(values))
            start = end
        return statistics.median(medians)


def clear_memo_caches() -> None:
    """Drop the analyzer's public memo caches so the next pass starts cold."""
    from repro.core.handelman import clear_monoid_cache
    from repro.core.synthesis import clear_template_cache
    from repro.polynomials.monomial import clear_intern_cache

    clear_template_cache()
    clear_monoid_cache()
    clear_intern_cache()


def strip_runtime(report: Dict[str, Any]) -> Dict[str, Any]:
    """A report dict without its wall-clock fields."""
    return {key: value for key, value in report.items() if "runtime" not in key}


def _done(timed: Timed, seconds: float, replay: Optional[Timed], minimum: int) -> bool:
    if replay is not None:
        return timed.passes >= replay.passes
    return timed.passes >= minimum and timed.wall >= seconds


# ---------------------------------------------------------------------------
# fuzz-octagon
# ---------------------------------------------------------------------------


def fuzz_digest(outcome) -> str:
    """Verdict digest stored in the reference file: the classification
    and the numbers behind it to nine significant digits."""

    def fmt(value):
        return "-" if value is None else f"{value:.9g}"

    text = "|".join(
        [outcome.classification, fmt(outcome.upper), fmt(outcome.lower), fmt(outcome.sim_mean)]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class FuzzOctagon:
    """``Harness(invariant_domain="octagon")`` over the 200-program
    reference corpus (fuzz seeds 0..199), one program at a time, in an
    order drawn from the workload seed.  Every pass runs the whole
    corpus.  Passes alternate: a cold pass clears the public memo caches
    first, the warm pass after it repeats every program with them kept;
    the timed run makes at least one of each."""

    name = "fuzz-octagon"
    min_passes = 2

    def __init__(self, seed: int, root: Path, work: Path):
        from repro.fuzz import Harness

        self.reference = json.loads(REFERENCE.read_text())
        self.harness = Harness(invariant_domain=self.reference["invariant_domain"])
        self.order = [row["seed"] for row in self.reference["verdicts"]]
        random.Random(seed).shuffle(self.order)
        self.sizes = {"corpus": len(self.order), "fuzz_seed": self.reference["seed"]}

    def close(self) -> None:
        pass

    def run(self, seconds: float, replay: Optional[Timed] = None, tracer=None, min_passes: Optional[int] = None) -> Timed:
        timed = Timed()
        minimum = self.min_passes if min_passes is None else min_passes
        expected = {row["seed"]: row for row in self.reference["verdicts"]}
        while not _done(timed, seconds, replay, minimum):
            start, ops_before = time.perf_counter(), timed.ops
            cold = timed.passes % 2 == 0
            if cold:
                clear_memo_caches()
            tally: Dict[str, int] = {}
            for fuzz_seed in self.order:
                if tracer is not None:
                    tracer.set_op((timed.passes, fuzz_seed))
                t0 = time.perf_counter()
                outcome = self.harness.run_one(fuzz_seed)
                timed.latencies.append(time.perf_counter() - t0)
                timed.cold.append(cold)
                tally[outcome.classification] = tally.get(outcome.classification, 0) + 1
                errors = []
                if outcome.classification == "violation":
                    errors.append(f"seed {fuzz_seed}: violation: {outcome.detail}")
                ref = expected[fuzz_seed]
                if outcome.classification != ref["classification"] or fuzz_digest(outcome) != ref["digest"]:
                    errors.append(
                        f"seed {fuzz_seed}: verdict {outcome.classification} "
                        f"digest {fuzz_digest(outcome)} differs from reference "
                        f"{ref['classification']} {ref['digest']}"
                    )
                full = json.dumps(outcome.to_dict(), sort_keys=True)
                if timed.outputs.setdefault(fuzz_seed, full) != full:
                    errors.append(f"seed {fuzz_seed}: verdict changed between passes")
                timed.failed += bool(errors)
                timed.errors += errors
            want: Dict[str, int] = {}
            for fuzz_seed in self.order:
                verdict = expected[fuzz_seed]["classification"]
                want[verdict] = want.get(verdict, 0) + 1
            if tally != want:
                timed.errors.append(f"pass {timed.passes}: verdict counts {tally} != reference {want}")
            timed.end_pass(time.perf_counter() - start, timed.ops - ops_before)
        return timed

    def verify(self, timed: Timed) -> List[str]:
        return list(timed.errors)


# ---------------------------------------------------------------------------
# registry-sweep
# ---------------------------------------------------------------------------


class RegistrySweep:
    """All 30 registry benchmarks at every published init (60 tasks)
    through ``run_batch(jobs=1)``: no cache, ``degree="auto"``,
    ``tails=True``, interval domain.  Each pass clears the public memo
    caches, then runs the 60 tasks in an order drawn from the seed, each
    task twice in a row: the first run is cold, the repeat warm (the
    memo caches then hold that program's templates)."""

    name = "registry-sweep"
    min_passes = 2

    def __init__(self, seed: int, root: Path, work: Path):
        from repro.batch.spec import requests_from_spec
        from repro.programs import all_benchmarks

        self.root = root
        spec = {"defaults": {"degree": "auto", "tails": True}, "tasks": [{"suite": "all", "all_inits": True}]}
        self.requests = requests_from_spec(spec)
        for bench in all_benchmarks():
            # Registry parse, CFG and annotations, cached on the benchmark.
            bench.invariant_map()
        self.rng = random.Random(seed)
        self.sizes = {"tasks": len(self.requests), "benchmarks": len(all_benchmarks())}

    def close(self) -> None:
        pass

    @staticmethod
    def task_key(request) -> str:
        return f"{request.benchmark}@{json.dumps(request.init, sort_keys=True)}"

    def run(self, seconds: float, replay: Optional[Timed] = None, tracer=None, min_passes: Optional[int] = None) -> Timed:
        from repro.batch.engine import run_batch

        timed = Timed()
        minimum = self.min_passes if min_passes is None else min_passes
        while not _done(timed, seconds, replay, minimum):
            start, ops_before = time.perf_counter(), timed.ops
            clear_memo_caches()
            order = list(self.requests)
            self.rng.shuffle(order)
            order = [request for request in order for _ in (0, 1)]
            if tracer is not None:
                tracer.set_op((timed.passes, 0))
            last = [time.perf_counter()]

            def progress(report, last=last):
                now = time.perf_counter()
                timed.cold.append((timed.ops - ops_before) % 2 == 0)
                timed.latencies.append(now - last[0])
                last[0] = now
                if tracer is not None:
                    tracer.set_op((timed.passes, timed.ops - ops_before))

            reports = run_batch(order, jobs=1, progress=progress)
            for request, report in zip(order, reports):
                key = self.task_key(request)
                errors = []
                if report.status != "ok":
                    errors.append(f"{key}: status {report.status}: {report.error}")
                canonical = json.dumps(strip_runtime(report.to_dict()), sort_keys=True)
                if timed.outputs.setdefault(key, canonical) != canonical:
                    errors.append(f"{key}: report changed between runs")
                timed.failed += bool(errors)
                timed.errors += errors
            timed.end_pass(time.perf_counter() - start, timed.ops - ops_before)
        return timed

    def verify(self, timed: Timed) -> List[str]:
        errors = list(timed.errors)
        reports = {key: json.loads(text) for key, text in timed.outputs.items()}
        errors += self._check_goldens(reports)
        errors += self._check_bracket(reports)
        return errors

    def _check_goldens(self, reports: Dict[str, Dict]) -> List[str]:
        """Canonical-init bounds must equal ``tests/golden/*.json``."""
        from repro.programs import get_benchmark

        golden: Dict[str, Dict] = {}
        for table in ("table2", "table3", "table6"):
            rows = json.loads((self.root / "tests" / "golden" / f"{table}.json").read_text())["rows"]
            for row in rows:
                bench = get_benchmark(row["benchmark"])
                if row.get("init", bench.init) == bench.init:
                    golden[row["benchmark"]] = row
        errors = []
        for request in self.requests:
            bench = get_benchmark(request.benchmark)
            if request.init != bench.init:
                continue
            key = self.task_key(request)
            row = golden.get(request.benchmark)
            report = reports.get(key)
            if row is None or report is None:
                errors.append(f"{key}: no golden row or no report")
                continue
            for side in ("upper", "lower"):
                want, got = row[f"{side}_value"], report[f"{side}_value"]
                if want is None:
                    # The golden files print a placeholder bound ("-", "0")
                    # for a side that has no value.
                    same = got is None
                else:
                    same = (
                        got is not None
                        and math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-9)
                        and row[side] == report[f"{side}_bound"]
                    )
                if not same:
                    errors.append(
                        f"{key}: {side} {report[f'{side}_bound']} = {got} != golden {row[side]} = {want}"
                    )
        return errors

    def _check_bracket(self, reports: Dict[str, Dict]) -> List[str]:
        """Vectorized Monte-Carlo: upper >= mean >= lower within 5 sigma;
        nondeterministic programs upper-only under the coin-flip scheduler."""
        from repro.programs import get_benchmark, probabilistic_variant
        from repro.semantics import simulate

        errors = []
        for index, request in enumerate(self.requests):
            key = self.task_key(request)
            report = reports[key]
            bench = get_benchmark(request.benchmark)
            nondet = bench.has_nondeterminism
            if nondet:
                bench = probabilistic_variant(bench, prob=0.5)
            runs = BRACKET_RUNS.get(request.benchmark, 1000)
            stats = simulate(bench.cfg, request.init, runs=runs, seed=index, engine="vectorized")
            if stats.truncated or not stats.terminated_runs:
                errors.append(f"{key}: simulation truncated")
                continue
            margin = max(1e-6, SIGMAS * stats.stderr())
            upper, lower = report["upper_value"], report["lower_value"]
            if upper is None or upper < stats.mean - margin:
                errors.append(f"{key}: upper {upper} < simulated mean {stats.mean:.6g} (margin {margin:.3g})")
            if not nondet and lower is not None and lower > stats.mean + margin:
                errors.append(f"{key}: lower {lower} > simulated mean {stats.mean:.6g} (margin {margin:.3g})")
        return errors


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

#: Share of requests that repeat a key already answered in the pass.
REPEAT_SHARE = 0.5
#: Share of new keys drawn from the registry (the rest are inline
#: fuzz-generated sources).
REGISTRY_SHARE = 0.5
CLIENT_THREADS = 2


class Server:
    """One ``repro serve`` subprocess with a fresh cache directory.

    ``traced`` starts it through ``serve_traced.py``, which wraps the
    layers before ``create_server`` and dumps spans on SIGTERM drain.
    """

    def __init__(self, root: Path, work: Path, traced: bool):
        self.work = work
        self.traced = traced
        work.mkdir(parents=True, exist_ok=True)
        self.log_path = work / "serve.log"
        self.spans_path = work / "spans.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(work / "cache")
        if traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, cwd=str(root), env=env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log_path.read_text()[-2000:]}")
            for line in self.log_path.read_text().splitlines():
                if "listening on http://" in line:
                    return int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("server did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the live server, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        shutil.rmtree(self.work / "cache", ignore_errors=True)


class ServiceMixed:
    """``repro serve`` under a closed loop of 2 client threads.

    The key pool, built from the seed: registry name x published init x
    degree {1, 2, auto} x tails (360 keys), interleaved with the 200
    programs of the fuzz-octagon corpus as inline sources (interval
    domain, degree auto, tails).  A pass sends every key once cold and
    as many warm repeats of keys already answered in the pass, so cold
    requests write the result cache and warm ones read it.  Each pass
    runs against a fresh server with an empty cache."""

    name = "service-mixed"
    min_passes = 5

    def __init__(self, seed: int, root: Path, work: Path):
        from repro.fuzz import GenConfig, generate
        from repro.programs import all_benchmarks

        reference = json.loads(REFERENCE.read_text())
        self.root = root
        self.work = work
        self.seed = seed
        rng = random.Random(seed)
        registry = [
            {"benchmark": bench.name, "init": dict(init), "degree": degree, "tails": tails}
            for bench in all_benchmarks()
            for init in bench.all_inits()
            for degree in (1, 2, "auto")
            for tails in (False, True)
        ]
        rng.shuffle(registry)
        # Inline sources come from the fuzz-octagon corpus rather than
        # fresh seeds; see the README for the generated program that
        # stalls one LP for a minute.
        config = GenConfig.from_dict(reference["config"])
        inline = []
        for row in reference["verdicts"]:
            program = generate(config, row["seed"])
            inline.append({"source": program.source, "init": dict(program.init), "degree": "auto", "tails": True})
        rng.shuffle(inline)
        self.sizes = {
            "registry_keys": len(registry),
            "inline_keys": len(inline),
            "repeat_share": REPEAT_SHARE,
            "client_threads": CLIENT_THREADS,
        }
        self.keys: List[Dict[str, Any]] = []
        while registry or inline:
            pick = registry if (registry and (not inline or rng.random() < REGISTRY_SHARE)) else inline
            self.keys.append(pick.pop())
        self.bodies = [json.dumps(key).encode() for key in self.keys]
        #: key -> in-process report text, filled by :meth:`verify`.
        self.expected: Dict[int, str] = {}
        self.traced = False
        #: Spans and 429 count collected from traced servers.
        self.spans: List[Any] = []
        self.throttled = 0
        self.servers = 0
        self.server: Optional[Server] = None
        self._start_server()

    def _start_server(self) -> None:
        self.stop_server()
        self.servers += 1
        self.server = Server(self.root, self.work / f"server-{self.servers}", traced=self.traced)

    def stop_server(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        server.stop()
        if server.traced:
            spans, extra = load_spans(str(server.spans_path))
            self.spans.extend(spans)
            self.throttled += extra["throttled"]

    def trace_server(self) -> None:
        """Later passes run against traced servers."""
        self.traced = True
        self._start_server()

    def close(self) -> None:
        self.stop_server()

    def run(self, seconds: float, replay: Optional[Timed] = None, tracer=None, min_passes: Optional[int] = None) -> Timed:
        timed = Timed()
        minimum = self.min_passes if min_passes is None else min_passes
        peak = 0.0
        while not _done(timed, seconds, replay, minimum):
            if self.server is None:
                self._start_server()
            self._pass(timed)
            peak = max(peak, self.server.peak_rss_mb())
            self.stop_server()
        timed.peak_rss_mb = peak
        return timed

    def _pass(self, timed: Timed) -> None:
        """Every key once cold plus as many warm repeats, on 2 threads."""
        lock = threading.Lock()
        answered: List[int] = []
        cold_body: Dict[int, bytes] = {}
        state = {"next": 0, "warm_left": len(self.keys)}
        log: List[Tuple[int, bool, float, int, bytes]] = []
        port = self.server.port

        def pick(rng: random.Random) -> Optional[Tuple[int, bool]]:
            with lock:
                fresh = state["next"] < len(self.keys)
                if answered and state["warm_left"] and (not fresh or rng.random() < REPEAT_SHARE):
                    state["warm_left"] -= 1
                    return rng.choice(answered), False
                if fresh:
                    state["next"] += 1
                    return state["next"] - 1, True
                return None

        def client(thread: int) -> None:
            # One connection per request: on a kept-alive connection the
            # server's separate header and body writes meet Nagle's
            # algorithm and the client's delayed ACK, which adds about
            # 40 ms to every response and would hide everything else.
            rng = random.Random(f"{self.seed}/{timed.passes}/{thread}")
            while True:
                choice = pick(rng)
                if choice is None:
                    return
                key, cold = choice
                t0 = time.perf_counter()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                try:
                    conn.request(
                        "POST",
                        "/analyze",
                        body=self.bodies[key],
                        headers={"Content-Type": "application/json", "Connection": "close"},
                    )
                    response = conn.getresponse()
                    data = response.read()
                finally:
                    conn.close()
                latency = time.perf_counter() - t0
                with lock:
                    log.append((key, cold, latency, response.status, data))
                    if cold:
                        cold_body[key] = data
                        answered.append(key)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        timed.end_pass(time.perf_counter() - start, len(log))
        for key, cold, latency, status, data in log:
            timed.latencies.append(latency)
            timed.cold.append(cold)
            errors = []
            if status != 200:
                errors.append(f"key {key}: HTTP {status}")
            elif not cold:
                if data != cold_body.get(key):
                    errors.append(f"key {key}: warm response differs from the cold one")
            else:
                report = json.loads(data)
                if report.get("status") != "ok":
                    errors.append(f"key {key}: status {report.get('status')}: {report.get('error')}")
                text = json.dumps(strip_runtime(report), sort_keys=True)
                if timed.outputs.setdefault(key, text) != text:
                    errors.append(f"key {key}: report changed between passes")
            timed.failed += bool(errors)
            timed.errors += errors

    def verify(self, timed: Timed) -> List[str]:
        """Every cold response equals an in-process ``Analyzer.analyze``
        of the same request, run-time fields ignored."""
        from repro.api import Analyzer

        errors = list(timed.errors)
        analyzer = Analyzer()
        try:
            for key, text in timed.outputs.items():
                if key not in self.expected:
                    request = dict(self.keys[key])
                    program = request.pop("benchmark", None) or request.pop("source")
                    report = strip_runtime(analyzer.analyze(program, **request).to_dict())
                    self.expected[key] = json.dumps(report, sort_keys=True)
                if self.expected[key] != text:
                    errors.append(f"key {key}: response differs from in-process Analyzer.analyze")
        finally:
            analyzer.close()
        return errors


WORKLOADS = {cls.name: cls for cls in (FuzzOctagon, RegistrySweep, ServiceMixed)}
