"""The one record of analysis knobs.

:class:`AnalysisOptions` is the only place the pipeline's settings are
declared, coerced and validated: the degree plan, the Handelman cap,
the invariant policy, the valuation ``v*``, the regime, simulation,
tails, lint and scheduling.  Every front end builds one; the batch
engine's :class:`~repro.batch.spec.AnalysisRequest` is the same record
plus a target (a benchmark name or source text).

Layering (spec-file ``defaults`` + per-task overrides, session options
+ per-call overrides) goes through :meth:`AnalysisOptions.merge`, which
takes mappings/keywords of *explicitly set* fields — never a second
options object, whose untouched defaults would be indistinguishable
from deliberate choices.

This module is a leaf: it imports nothing from the pipeline, so the
engine, the analysis facade and :mod:`repro.api` can all depend on it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Union

from .resilience.retry import RetryPolicy

__all__ = ["AnalysisOptions", "DEFAULT_MAX_DEGREE"]

#: Degree ceiling for ``degree="auto"`` escalation unless overridden.
DEFAULT_MAX_DEGREE = 4

#: Fields that must be a real ``bool`` (a JSON ``"no"`` is not false).
_FLAGS = ("compute_lower", "auto_invariants", "simulate_nondet", "tails")
#: Integer fields with a lower bound; ``True`` marks the optional ones.
_COUNTS = (
    ("max_degree", False),
    ("max_multiplicands", True),
    ("simulate_runs", True),
    ("simulate_max_steps", False),
    ("tail_horizon", True),
)
#: Fields restricted to a fixed set of string values.
_CHOICES = {
    "mode": (None, "auto", "signed", "nonnegative"),
    "invariant_domain": ("interval", "octagon"),
    "simulate_engine": ("auto", "vectorized", "reference"),
    "check": ("off", "warn", "strict"),
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class AnalysisOptions:
    """Everything that configures one expected-cost analysis.

    All fields are JSON-plain (``retry`` round-trips through its
    mapping form) and validated at construction.  Instances are
    frozen: derive variations with :meth:`merge`.
    """

    #: What :meth:`from_dict` and :meth:`merge` call a field in errors
    #: (unannotated, so not a dataclass field).
    _kind = "option"

    #: Template degree plan: ``None`` (the benchmark's default, 2 for
    #: inline source), a fixed positive int, or ``"auto"`` — escalate
    #: d = 1..``max_degree`` until every requested bound is feasible.
    degree: Union[int, str, None] = None
    #: Ceiling for ``degree="auto"`` escalation.
    max_degree: int = DEFAULT_MAX_DEGREE
    #: Soundness regime: ``None`` (benchmark default / ``"auto"``),
    #: ``"auto"``, ``"signed"`` or ``"nonnegative"``.
    mode: Optional[str] = None
    #: Attempt the PLCS lower bound when the regime admits one.
    compute_lower: bool = True
    #: Handelman multiplicand cap K (``None`` = the degree default).
    max_multiplicands: Optional[int] = None
    #: LP solver backend id (see ``repro.core.solvers``); ``None`` or
    #: ``"auto"`` resolves to the environment default.  The *resolved*
    #: id is part of the cache fingerprint, so backends never alias.
    solver: Optional[str] = None
    #: Per-label invariant annotations.  For inline source these are
    #: the only annotations; for a registry benchmark a non-``None``
    #: value *overrides* the registry's (``{}`` analyses it with none).
    #: Keys may be ints or numeric strings (JSON).
    invariants: Optional[Dict[int, str]] = None
    #: Strengthen annotations with automatically generated invariants
    #: (the paper uses StInG similarly).
    auto_invariants: bool = True
    #: Abstract domain of the automatic invariant generator:
    #: ``"interval"`` (per-variable boxes) or ``"octagon"`` (relational
    #: ``+-x +-y <= c`` constraints, conjoined into annotated labels
    #: and enabling the REP013/REP014 lint checks).
    invariant_domain: str = "interval"
    #: Initial valuation ``v*``; ``None`` uses the benchmark anchor.
    init: Optional[Dict[str, float]] = None
    #: Replace every ``if *`` by ``if prob(p)`` before analysis (the
    #: Table 5 transformation); ``None`` leaves the program as-is.
    nondet_prob: Optional[float] = None
    #: Monte-Carlo runs to simulate after synthesis (``None`` = none).
    simulate_runs: Optional[int] = None
    simulate_seed: int = 0
    simulate_max_steps: int = 1_000_000
    #: Simulation engine: ``"auto"`` (NumPy batch stepper for large
    #: batches, with transparent fallback), ``"vectorized"`` (force the
    #: batch stepper) or ``"reference"`` (pure-Python loop).  The two
    #: engines draw different RNG streams for the same seed.
    simulate_engine: str = "auto"
    #: Simulate even a nondeterministic program (default then-branch
    #: scheduler); off because a demonic bound is not comparable to one
    #: fixed policy's statistics.
    simulate_nondet: bool = False
    #: Per-task wall-clock budget in seconds (``status="timeout"``);
    #: enforced via SIGALRM on main threads and the cooperative
    #: deadline of :mod:`repro.deadline` everywhere else.
    timeout_s: Optional[float] = None
    #: Free-form caller tag, echoed on the report (not fingerprinted).
    tag: Optional[str] = None
    #: Also derive an Azuma–Hoeffding concentration (tail) bound
    #: ``P[cost >= E + t, T <= n] <= exp(-t^2/(2 c^2 n))`` from the
    #: upper certificate (:mod:`repro.analysis.tails`).
    tails: bool = False
    #: Step horizon ``n`` of the tail guarantee; ``None`` uses the
    #: interpreter's default truncation (1e6 steps).
    tail_horizon: Optional[int] = None
    #: Offsets ``t`` to pre-evaluate the tail bound at; ``None`` picks
    #: multiples of the natural scale ``c * sqrt(horizon)``.
    tail_probes: Optional[List[float]] = None
    #: Static lint pass (:mod:`repro.check`) before synthesis:
    #: ``"off"`` skips it, ``"warn"`` attaches diagnostics to the
    #: result/report and proceeds, ``"strict"`` rejects programs with
    #: error-severity findings before any LP work
    #: (``status="rejected"`` reports, :class:`~repro.errors.CheckError`
    #: from :func:`repro.analysis.analyze`).
    check: str = "off"
    #: Crash-retry budget for pool workers that die mid-task
    #: (:class:`repro.resilience.RetryPolicy`, or its ``to_dict``
    #: mapping — coerced); ``None`` uses the engine default (one retry
    #: with jittered backoff).  A scheduling knob like ``timeout_s``:
    #: never part of the cache fingerprint.
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        # Normalize the container fields to plain, correctly-typed
        # values (JSON object keys arrive as strings) before validating.
        if self.invariants is not None:
            try:
                coerced = {int(label): str(cond) for label, cond in dict(self.invariants).items()}
            except (TypeError, ValueError):
                raise ValueError(
                    f"invariant labels must be integers, got {self.invariants!r}"
                ) from None
            object.__setattr__(self, "invariants", coerced)
        if self.init is not None:
            try:
                object.__setattr__(
                    self, "init", {str(var): float(value) for var, value in dict(self.init).items()}
                )
            except (TypeError, ValueError):
                raise ValueError(f"init values must be numbers, got {self.init!r}") from None
        if self.tail_probes is not None:
            probes = self.tail_probes
            if not (
                isinstance(probes, (list, tuple))
                and probes
                and all(_is_number(t) and t > 0 for t in probes)
            ):
                raise ValueError(
                    f"tail_probes must be a non-empty list of positive numbers, got {probes!r}"
                )
            object.__setattr__(self, "tail_probes", [float(t) for t in probes])
        object.__setattr__(self, "retry", RetryPolicy.coerce(self.retry))
        self._validate()

    def _validate(self) -> None:
        if self.degree is not None and self.degree != "auto":
            if not _is_int(self.degree) or self.degree < 1:
                raise ValueError(f"degree must be a positive int or 'auto', got {self.degree!r}")
        for name in _FLAGS:
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name, optional in _COUNTS:
            value = getattr(self, name)
            if not (optional and value is None) and (not _is_int(value) or value < 1):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                allowed = ", ".join(repr(c) for c in choices if c is not None)
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not _is_int(self.simulate_seed):
            raise ValueError(f"simulate_seed must be an int, got {self.simulate_seed!r}")
        if self.solver is not None and not isinstance(self.solver, str):
            raise ValueError(f"solver must be a backend name string, got {self.solver!r}")
        if self.nondet_prob is not None and not (
            _is_number(self.nondet_prob) and 0.0 <= self.nondet_prob <= 1.0
        ):
            raise ValueError(f"nondet_prob must be a number in [0, 1], got {self.nondet_prob!r}")
        if self.timeout_s is not None and not (_is_number(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be a positive number, got {self.timeout_s!r}")

    # -- layering -------------------------------------------------------

    def merge(self, *layers: Mapping[str, Any], **overrides: Any) -> "AnalysisOptions":
        """A new record of the same class with later layers winning.

        ``layers`` are mappings of explicitly-set fields (e.g. a spec
        file's ``defaults`` then a task object); ``overrides`` apply
        last.  Unknown keys raise, and the merged result re-validates::

            AnalysisOptions().merge(spec["defaults"], task, degree=3)
        """
        updates: Dict[str, Any] = {}
        for layer in layers:
            if not isinstance(layer, _MappingABC):
                raise TypeError(
                    "merge() layers must be mappings of option fields; to layer two "
                    "AnalysisOptions, pass the explicit fields as a dict "
                    f"(got {type(layer).__name__})"
                )
            updates.update(layer)
        updates.update(overrides)
        self._reject_unknown(updates)
        return replace(self, **updates)

    @classmethod
    def _reject_unknown(cls, data: Mapping[str, Any]) -> None:
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls._kind} field(s): {sorted(unknown)}")

    # -- JSON -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-plain dict of every field (round-trips via
        :meth:`from_dict`)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RetryPolicy):
                value = value.to_dict()
            elif isinstance(value, (dict, list)):
                value = type(value)(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        cls._reject_unknown(data)
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{cls._kind} JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def degree_plan(self, default: Optional[int] = None) -> List[Optional[int]]:
        """The degrees a caller should attempt, in order.

        ``"auto"`` escalates 1..``max_degree``; a fixed degree is a
        one-element plan; ``None`` defers to ``default`` (a benchmark's
        own degree — kept as ``None`` when no default is given so the
        callee can resolve it).
        """
        if self.degree == "auto":
            return list(range(1, self.max_degree + 1))
        if self.degree is not None:
            return [int(self.degree)]
        return [default]
