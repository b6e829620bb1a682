"""Automatic linear invariant generation via abstract interpretation.

The paper uses the Stanford Invariant Generator [82] to obtain linear
invariants; any sound generator can be substituted because invariants
are an *input* to the method.  Two generators are provided, selected by
the ``invariant_domain`` option everywhere the pipeline surfaces it:

* ``"interval"`` — per-variable boxes from :mod:`repro.check.interp`
  (``x - lo >= 0`` and ``hi - x >= 0`` rows);
* ``"octagon"`` — relational constraints ``+-x +-y <= c`` from
  :mod:`repro.check.octagon`, which recover facts like ``n - x >= 0``
  that previously had to be hand-annotated.

Both emit *canonical* constraint rows: deduplicated, ordered by
variable name (then constraint kind), independent of dict-iteration
order — so the Gamma rows fed to the Handelman products and the
request fingerprints derived from them are stable and minimal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from ..check.interp import AbstractAnalysis, Interval, analyze_cfg
from ..check.octagon import OctagonAnalysis, analyze_cfg_octagon
from ..polynomials import Polynomial
from ..semantics.cfg import CFG
from .annotations import InvariantMap
from .polyhedron import Polyhedron, Region

__all__ = [
    "INVARIANT_DOMAINS",
    "Interval",
    "generate_interval_invariants",
    "generate_invariants",
    "generate_octagon_invariants",
]

#: The recognised values of the ``invariant_domain`` option.
INVARIANT_DOMAINS = ("interval", "octagon")


def _canonical_rows(rows: List[Polynomial]) -> List[Polynomial]:
    """Deduplicate constraint rows, preserving their canonical order.

    Emission sites order rows by variable name (then bound kind), so
    first-seen order *is* the canonical order; this pass only drops
    exact repeats (e.g. the same bound reached through two variables'
    emission passes), keeping Gamma minimal and fingerprints stable.
    """
    seen = set()
    out: List[Polynomial] = []
    for row in rows:
        key = tuple(sorted((mono, float(coeff)) for mono, coeff in row.terms()))
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def _box_rows(state: Mapping[str, Interval]) -> List[Polynomial]:
    """Canonical interval rows for one abstract box: per variable in
    name order, the finite lower bound then the finite upper bound."""
    rows: List[Polynomial] = []
    for var, interval in sorted(state.items()):
        if math.isfinite(interval.lo):
            rows.append(Polynomial.variable(var) - interval.lo)
        if math.isfinite(interval.hi):
            rows.append(Polynomial.constant(interval.hi) - Polynomial.variable(var))
    return rows


def generate_interval_invariants(
    cfg: CFG, init: Mapping[str, float], analysis: Optional[AbstractAnalysis] = None
) -> InvariantMap:
    """Run the interval analysis from the initial valuation ``init``.

    Variables not mentioned by ``init`` start at 0 (matching the
    interpreter).  Returns interval constraints at every reachable
    label; unreachable labels get the (vacuous) trivial invariant.
    ``analysis`` is a fixpoint of ``(cfg, init)`` the caller already ran
    (the lint's); it is used instead of a new run.
    """
    if analysis is None:
        analysis = analyze_cfg(cfg, init)
    entries: Dict[int, Region] = {}
    for label_id, state in analysis.states.items():
        if state is None:
            continue
        constraints = _canonical_rows(_box_rows(state))
        entries[label_id] = Region.of(Polyhedron(constraints))
    return InvariantMap(entries)


def generate_octagon_invariants(
    cfg: CFG, init: Mapping[str, float], analysis: Optional[OctagonAnalysis] = None
) -> InvariantMap:
    """Run the octagon analysis from the initial valuation ``init``.

    Returns, at every reachable label, the unary bounds plus every
    relational constraint ``+-x +-y <= c`` that is strictly stronger
    than what the unary bounds already imply (the entailed ones would
    only bloat the Handelman products).  ``analysis`` is as in
    :func:`generate_interval_invariants`.
    """
    if analysis is None:
        analysis = analyze_cfg_octagon(cfg, init)
    entries: Dict[int, Region] = {}
    for label_id in analysis.states:
        rows = analysis.constraints_at(label_id)
        if rows is None:
            continue
        entries[label_id] = Region.of(Polyhedron(_canonical_rows(rows)))
    return InvariantMap(entries)


def generate_invariants(
    cfg: CFG, init: Mapping[str, float], domain: str = "interval", analysis=None
) -> InvariantMap:
    """Generate invariants in the requested abstract ``domain`` (from
    that domain's ``analysis`` of ``(cfg, init)`` when given)."""
    if domain not in INVARIANT_DOMAINS:
        raise ValueError(
            f"invariant_domain must be one of {INVARIANT_DOMAINS}, got {domain!r}"
        )
    generate = (
        generate_octagon_invariants if domain == "octagon" else generate_interval_invariants
    )
    return generate(cfg, init, analysis=analysis)
