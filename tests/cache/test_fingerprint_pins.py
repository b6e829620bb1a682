"""Pinned cache fingerprints.

A warm cache written by an earlier build must keep hitting: the
fingerprint of each request below is pinned field by field (the salt
aside, which tracks the package version; the canonical program text is
pinned by its SHA-256).  A change here invalidates every stored entry
and must come with an ``ENTRY_SCHEMA`` bump.
"""

import hashlib

import pytest

from repro.batch import AnalysisRequest
from repro.cache import request_fingerprint

SOURCE = "var x, n;\nwhile x <= n do\n  if prob(0.75) then x := x + 1 else x := x - 1 fi;\n  tick(1)\nod\n"

CASES = {
    "registry_anchor": dict(benchmark="rdwalk"),
    "registry_table4_init": dict(benchmark="goods_discount", init={"n": 150.0, "d": 1.0}),
    "inline_source": dict(
        source=SOURCE, init={"x": 0.0, "n": 10.0}, invariants={1: "x <= n + 1"}
    ),
    "auto_octagon_strict": dict(
        benchmark="random_walk",
        degree="auto",
        max_degree=3,
        invariant_domain="octagon",
        check="strict",
    ),
    "tails_with_probes": dict(
        benchmark="rdwalk", tails=True, tail_horizon=500, tail_probes=[10.0, 20.0]
    ),
    "vectorized_simulation": dict(
        benchmark="coupon_collector",
        simulate_runs=1000,
        simulate_seed=3,
        simulate_engine="vectorized",
    ),
    "nondet_prob": dict(benchmark="bitcoin_mining", nondet_prob=0.5),
}

EXPECTED = {
    "auto_octagon_strict": {
        "auto_invariants": True,
        "check": "strict",
        "compute_lower": True,
        "degrees": [1, 2, 3],
        "init": {"n": 20.0, "x": 12.0, "y": 0.0},
        "invariant_domain": "octagon",
        "invariants": {
            "1": "n - x + 1 >= 0",
            "2": "n - x >= 0",
            "3": "n - x >= 0",
            "4": "n - x >= 0",
            "5": "n - x + 1 >= 0 and y + 1 >= 0 and 1 - y >= 0",
            "6": "n - x + 1 >= 0 and y + 1 >= 0 and 1 - y >= 0",
        },
        "max_multiplicands": None,
        "mode": "auto",
        "program": "391e0e3c97d1352fbd1bc8d7f23270e1a50798b178889713d72a104323a5ae05",
        "simulate": None,
        "solver": "highs",
        "tails": None,
    },
    "inline_source": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [2],
        "init": {"n": 10.0, "x": 0.0},
        "invariant_domain": "interval",
        "invariants": {"1": "x <= n + 1"},
        "max_multiplicands": None,
        "mode": "auto",
        "program": "08afd7b98e87d43feaac9564bda87652a374830796d66dc5623868d094ad7505",
        "simulate": None,
        "solver": "highs",
        "tails": None,
    },
    "nondet_prob": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [1],
        "init": {"x": 100.0},
        "invariant_domain": "interval",
        "invariants": {
            "1": "x >= 0",
            "2": "x >= 1",
            "3": "x >= 0",
            "4": "x >= 0",
            "5": "x >= 0",
            "6": "x >= 0",
            "7": "x >= 0",
            "8": "x >= 0",
        },
        "max_multiplicands": None,
        "mode": "auto",
        "program": "df618de04d83ff7c9de55017c536f6f8050775ffc9fd9eb6721da341eaa193ef",
        "simulate": None,
        "solver": "highs",
        "tails": None,
    },
    "registry_anchor": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [1],
        "init": {"n": 100.0, "x": 0.0},
        "invariant_domain": "interval",
        "invariants": {"1": "n - x + 1 >= 0", "2": "n - x >= 0", "3": "n - x + 1 >= 0"},
        "max_multiplicands": None,
        "mode": "auto",
        "program": "fe3067f3406a790ca314760ce7f5465c0f40b6d711bc83baf29b751692983f06",
        "simulate": None,
        "solver": "highs",
        "tails": None,
    },
    "registry_table4_init": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [2],
        "init": {"d": 1.0, "n": 150.0},
        "invariant_domain": "interval",
        "invariants": {
            "1": "(n >= 0 and d >= 1 and 32 - d >= 0) and (n + d >= 151)",
            "2": "(n >= 1 and d >= 1 and 30 - d >= 0) and (n + d >= 151)",
            "3": "(n >= 0 and d >= 1 and 30 - d >= 0) and (n + d >= 150)",
            "4": "(n >= 0 and d >= 1 and 30 - d >= 0) and (n + d >= 150)",
            "5": "(n >= 0 and d >= 1 and 32 - d >= 0) and (n + d >= 151)",
            "6": "((n >= 0 and d >= 30 and 32 - d >= 0) or (n >= 0 and 1 - n >= 0 and d >= 1 and 32 - d >= 0)) and (n + d >= 151)",
        },
        "max_multiplicands": None,
        "mode": "auto",
        "program": "448c0b10f071ef77d379805bde9cb58de265a215fd2e5a4a864758458b219507",
        "simulate": None,
        "solver": "highs",
        "tails": None,
    },
    "tails_with_probes": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [1],
        "init": {"n": 100.0, "x": 0.0},
        "invariant_domain": "interval",
        "invariants": {"1": "n - x + 1 >= 0", "2": "n - x >= 0", "3": "n - x + 1 >= 0"},
        "max_multiplicands": None,
        "mode": "auto",
        "program": "fe3067f3406a790ca314760ce7f5465c0f40b6d711bc83baf29b751692983f06",
        "simulate": None,
        "solver": "highs",
        "tails": {"horizon": 500, "probes": [10.0, 20.0]},
    },
    "vectorized_simulation": {
        "auto_invariants": True,
        "check": "off",
        "compute_lower": True,
        "degrees": [1],
        "init": {"c": 0.0, "n": 20.0},
        "invariant_domain": "interval",
        "invariants": {
            "1": "c >= 0 and n - c >= 0",
            "2": "c >= 0 and n - c >= 1",
            "3": "c >= 0 and n - c >= 1",
            "4": "c >= 0 and n - c >= 1",
            "5": "c >= 0 and n - c >= 0 and c - n + 1 >= 0",
        },
        "max_multiplicands": None,
        "mode": "auto",
        "program": "a8cb0d1a1039b991d995e0c00e25c6d4e136038f7d77dede4d296150d6a48571",
        "simulate": {
            "engine": "vectorized",
            "max_steps": 1000000,
            "nondet": False,
            "runs": 1000,
            "seed": 3,
        },
        "solver": "highs",
        "tails": None,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_is_pinned(case):
    fingerprint = request_fingerprint(AnalysisRequest(**CASES[case]))
    fingerprint.pop("salt")
    fingerprint["program"] = hashlib.sha256(fingerprint["program"].encode("utf-8")).hexdigest()
    assert fingerprint == EXPECTED[case]
