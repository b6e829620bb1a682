"""Regenerate ``reference/fuzz_octagon.json``, the per-seed verdicts of
the fuzz-octagon corpus that every benchmark run is checked against.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Regenerate only when an intended change moves a verdict, and say why.
"""

from __future__ import annotations

import json

from repro.fuzz import Harness
from workloads import REFERENCE, fuzz_digest

SEED = 0
COUNT = 200
DOMAIN = "octagon"


def main() -> int:
    run = Harness(invariant_domain=DOMAIN).run(SEED, COUNT)
    payload = {
        "schema": "perfbench-fuzz-reference/v1",
        "invariant_domain": DOMAIN,
        "seed": SEED,
        "count": COUNT,
        "config": run.config.to_dict(),
        "counts": run.counts,
        "verdicts": [
            {"seed": o.seed, "classification": o.classification, "digest": fuzz_digest(o)}
            for o in run.outcomes
        ],
    }
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFERENCE}: {run.counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
