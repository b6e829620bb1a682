"""Legacy-path vs `repro.api`-path equivalence.

The redesign's contract: rewiring every front end onto
`Analyzer`/`AnalysisOptions` changes *no* analysis outcome.  These
tests pin that down three ways, over representatives of the table 2, 3
and 5 workloads:

* identical cache fingerprints — a legacy-built `AnalysisRequest` and
  the `Analyzer`-built request for the same work hash the same;
* byte-identical reports through a shared store — the legacy engine's
  cold report is exactly what the api path serves warm (and vice
  versa);
* semantically identical cold reports — modulo wall-clock fields.
"""

import pytest

from repro.api import Analyzer
from repro.batch import AnalysisRequest, requests_from_spec, run_batch
from repro.cache import ResultCache, request_key

#: (suite, bench_name, extra request fields) — one cheap representative
#: per table workload, coin-flip transformation included for table5.
REPRESENTATIVES = [
    ("table2", "ber", {}),
    ("table2", "rdbub", {}),  # nonnegative regime: exercises lower_skipped
    ("table3", "simple_loop", {}),
    ("table5", "bitcoin_mining", {"nondet_prob": 0.5, "simulate_runs": 20}),
]

#: Report fields that legitimately differ between two executions.
WALL_CLOCK_FIELDS = ("runtime", "analysis_runtime", "upper_runtime", "lower_runtime")


def _strip_clock(report_dict):
    return {k: v for k, v in report_dict.items() if k not in WALL_CLOCK_FIELDS}


@pytest.mark.parametrize("suite,bench_name,extra", REPRESENTATIVES)
class TestFingerprints:
    def test_legacy_request_and_api_request_hash_identically(self, suite, bench_name, extra):
        legacy = AnalysisRequest(benchmark=bench_name, **extra)
        api_key = Analyzer().fingerprint(bench_name, **extra)
        assert request_key(legacy) == api_key

    def test_suite_expansion_matches_api_requests(self, suite, bench_name, extra):
        expanded = {
            request_key(r)
            for r in requests_from_spec({"tasks": [{"suite": suite}]})
            if r.benchmark == bench_name and r.init is None
        }
        if suite == "table5":
            # the suite adds the coin flip but no simulation column here
            api_key = Analyzer().fingerprint(bench_name, nondet_prob=0.5)
        else:
            api_key = Analyzer().fingerprint(bench_name)
        assert api_key in expanded


@pytest.mark.parametrize("suite,bench_name,extra", REPRESENTATIVES)
class TestReports:
    def test_cold_reports_semantically_identical(self, suite, bench_name, extra):
        legacy = run_batch([AnalysisRequest(benchmark=bench_name, **extra)])[0]
        api = Analyzer().analyze(bench_name, **extra)
        assert _strip_clock(api.to_dict()) == _strip_clock(legacy.to_dict())

    def test_warm_api_read_of_legacy_write_is_byte_identical(
        self, suite, bench_name, extra, tmp_path
    ):
        store = tmp_path / "store"
        cold = run_batch([AnalysisRequest(benchmark=bench_name, **extra)], cache=ResultCache(store))[0]
        analyzer = Analyzer(cache=store)
        warm = analyzer.analyze(bench_name, **extra)
        assert analyzer.cache.hits == 1
        assert warm.to_dict() == cold.to_dict()

    def test_warm_legacy_read_of_api_write_is_byte_identical(
        self, suite, bench_name, extra, tmp_path
    ):
        store = tmp_path / "store"
        cold = Analyzer(cache=store).analyze(bench_name, **extra)
        cache = ResultCache(store)
        warm = run_batch([AnalysisRequest(benchmark=bench_name, **extra)], cache=cache)[0]
        assert cache.hits == 1
        assert warm.to_dict() == cold.to_dict()


class TestStagedVsEngine:
    @pytest.mark.parametrize("name", ["ber", "simple_loop", "rdbub"])
    def test_synthesize_matches_engine_values(self, name):
        report = Analyzer().analyze(name)
        result = Analyzer().synthesize(name)
        upper = result.upper.value if result.upper else None
        lower = result.lower.value if result.lower else None
        assert upper == report.upper_value
        assert lower == report.lower_value
        assert result.lower_skipped == report.lower_skipped


class TestV1Reader:
    def test_v1_reader_round_trip(self):
        from repro.api import AnalysisReport, report_from_dict

        v1 = {
            "schema": "repro-report/v1",
            "name": "ber",
            "status": "ok",
            "init": {"x": 0.0, "n": 10.0},
            "mode": "signed-bounded-update",
            "degree": 2,
            "degrees_tried": [2],
            "upper_value": 20.0,
            "upper_bound": "2*n - 2*x",
            "upper_runtime": 0.01,
            "lower_value": 20.0,
            "lower_bound": "2*n - 2*x",
            "lower_runtime": 0.01,
            "policy_enumerated": True,
            "sim_mean": None,
            "sim_std": None,
            "sim_truncated": None,
            "sim_termination_rate": None,
            "warnings": [],
            "error": None,
            "runtime": 0.05,
            "analysis_runtime": 0.04,
            "tag": None,
        }
        revived = report_from_dict(v1)
        assert isinstance(revived, AnalysisReport)
        assert revived.solver is None  # v1 dicts carry no backend id
        assert revived.upper_value == 20.0
        assert revived.attempts == 1 and revived.diagnostics is None
        assert {k: v for k, v in revived.to_dict().items() if k in v1} == {
            k: v for k, v in v1.items() if k != "schema"
        }
        with pytest.raises(ValueError, match="unsupported report schema"):
            report_from_dict({"schema": "repro-report/v9", "name": "x", "status": "ok"})
