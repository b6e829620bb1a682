"""High-level cost-analysis facade.

:func:`prepare` does the degree-independent work of the paper's
pipeline once per task: parse, CFG, lint, invariants (annotations
strengthened by the interval or octagon generator), the soundness
regime (Section 6.2 vs 6.3) and, optionally, a concentration
certificate.  :meth:`PreparedTask.step` then synthesizes the PUCS upper
and, when the regime admits one, PLCS lower bound at one template
degree; :func:`escalate` climbs a ladder of degrees over one task.
:func:`analyze` — prepare plus one step — is the function the examples
and the experiment harness call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # runtime imports would be circular; these are lazy below
    from ..check.diagnostics import Diagnostic
    from .tails import TailBound

from ..core.conditions import AnalysisMode, classify
from ..core.synthesis import BoundResult, synthesize
from ..errors import InfeasibleError, SynthesisError, UnboundedError
from ..invariants import INVARIANT_DOMAINS, InvariantMap, generate_invariants
from ..semantics.cfg import CFG, build_cfg
from ..syntax.ast import Program
from ..syntax.parser import parse_program
from ..termination import RankingCertificate, certify_concentration

__all__ = [
    "CostAnalysisResult",
    "PreparedTask",
    "analyze",
    "attach_tail_bound",
    "escalate",
    "prepare",
    "strengthen_invariants",
]


@dataclass
class CostAnalysisResult:
    """Everything the pipeline produced for one program."""

    program: Program
    cfg: CFG
    invariants: InvariantMap
    mode: AnalysisMode
    upper: Optional[BoundResult] = None
    lower: Optional[BoundResult] = None
    concentration: Optional[RankingCertificate] = None
    #: Azuma–Hoeffding concentration bound (``analyze(tails=True)``);
    #: ``None`` when not requested or unavailable (see ``warnings``).
    tail: Optional["TailBound"] = None
    warnings: List[str] = field(default_factory=list)
    #: Why ``lower`` is ``None`` although a lower bound was requested:
    #: the regime admits no PLCS bound, or synthesis was infeasible.
    #: ``None`` when a lower bound exists or none was asked for.
    lower_skipped: Optional[str] = None
    #: Findings of the static lint pass (``analyze(check=...)``), in
    #: reading order.  ``None`` means the check did not run; an empty
    #: list means it ran and the program is clean.
    diagnostics: Optional[List["Diagnostic"]] = None

    @property
    def upper_bound(self):
        """The PUCS bound polynomial at the entry label (or None)."""
        return self.upper.bound if self.upper else None

    @property
    def lower_bound(self):
        """The PLCS bound polynomial at the entry label (or None)."""
        return self.lower.bound if self.lower else None

    def summary(self) -> str:
        """Human-readable report (used by the examples)."""
        lines = [f"program: {self.program.name or '<anonymous>'}", f"mode:    {self.mode.name}"]
        if self.upper:
            lines.append(f"upper:   {self.upper.bound.round(6)}  (value {self.upper.value:.6g})")
        if self.lower:
            lines.append(f"lower:   {self.lower.bound.round(6)}  (value {self.lower.value:.6g})")
        elif self.lower_skipped:
            # A requested-but-missing PLCS bound used to vanish from the
            # report silently; say why it is absent.
            lines.append(f"lower:   skipped ({self.lower_skipped})")
        if self.tail is not None:
            lines.extend(self.tail.summary_lines())
        if self.concentration is not None:
            status = "certified" if self.concentration.certifies_concentration else "RSM only"
            lines.append(
                f"concentration: {status} (E[T] <= {self.concentration.expected_time_bound:.6g})"
            )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def complete_for(self, compute_lower: bool) -> bool:
        """Did the analysis produce everything that was asked for?

        :func:`escalate` keeps a rung only when this holds: an upper
        bound must exist, and — when a lower bound was requested and
        the regime admits one — a lower bound too.
        """
        if self.upper is None:
            return False
        if compute_lower and self.mode.lower and self.lower is None:
            return False
        return True


@dataclass
class PreparedTask:
    """The degree-independent half of one analysis (see :func:`prepare`).

    Invariants, regime and lint findings do not depend on the template
    degree (Section 7), so a degree ladder prepares once and calls
    :meth:`step` per rung.  Everything carried across rungs lives here.
    """

    program: Program
    cfg: CFG
    init: Dict[str, float]
    #: The merged Gamma: annotations plus generated invariants.
    invariants: InvariantMap
    mode: AnalysisMode
    compute_lower: bool = True
    max_multiplicands: Optional[int] = None
    concentration: Optional[RankingCertificate] = None
    #: Degree-independent warnings (forced regime, no theorem applies,
    #: concentration); every step's result starts with these.
    warnings: List[str] = field(default_factory=list)
    diagnostics: Optional[List["Diagnostic"]] = None

    def step(self, degree: int, final: bool = True) -> CostAnalysisResult:
        """Synthesize the bounds at template degree ``degree``.

        A non-``final`` rung whose PUCS bound failed is incomplete
        whatever PLCS finds, so the ladder discards it; the PLCS solve
        is skipped there.  The final rung always attempts both sides.
        """
        result = CostAnalysisResult(
            program=self.program,
            cfg=self.cfg,
            invariants=self.invariants,
            mode=self.mode,
            concentration=self.concentration,
            warnings=list(self.warnings),
            diagnostics=None if self.diagnostics is None else list(self.diagnostics),
        )
        result.upper = self._side(result, "upper", degree)
        if not self.compute_lower or (result.upper is None and not final):
            return result
        if not self.mode.lower:
            # The regime rules out PLCS entirely (e.g. Theorem 6.14 is
            # upper-only); record why instead of dropping the request
            # on the floor.
            result.lower_skipped = (
                f"PLCS not attempted: regime {self.mode.name!r} admits no lower bound"
            )
            return result
        result.lower = self._side(result, "lower", degree)
        if result.lower is None:  # _side's last warning says why
            result.lower_skipped = result.warnings[-1]
        return result

    def _side(self, result: CostAnalysisResult, kind: str, degree: int) -> Optional[BoundResult]:
        """One PUCS/PLCS synthesis; a failure becomes a warning."""
        try:
            bound = synthesize(
                self.cfg,
                self.invariants,
                self.init,
                kind=kind,
                degree=degree,
                nonnegative=kind == "upper" and self.mode.require_nonnegative_template,
                max_multiplicands=self.max_multiplicands,
            )
        except SynthesisError as exc:
            result.warnings.append(f"no degree-{degree} {kind} bound: {exc}")
            return None
        result.warnings.extend(bound.warnings)
        return bound


def strengthen_invariants(
    inv: InvariantMap,
    cfg: CFG,
    init: Mapping[str, float],
    domain: str = "interval",
    fixpoint=None,
) -> None:
    """Conjoin generated ``domain`` invariants into ``inv`` in place.

    Interval rows fill only labels the user left unannotated:
    hand-written invariants are typically tighter, and mixing in
    anchor-specific point intervals (e.g. ``n = 320``) can degrade LP
    conditioning.  Octagon rows are sound by construction, so they are
    conjoined into annotated labels too — this is what lets
    annotation-dependent benchmarks synthesize with their hand-written
    invariants deleted.  ``fixpoint`` is the domain's analysis of
    ``(cfg, init)`` when the caller already ran it (the lint does).
    """
    for label_id, region in generate_invariants(cfg, init, domain, fixpoint).items():
        if label_id not in inv:
            inv.set(label_id, region)
        elif domain == "octagon":
            inv.conjoin(label_id, region)


def prepare(
    program: Union[str, Program],
    init: Mapping[str, float],
    invariants: Optional[Union[InvariantMap, Mapping[int, object]]] = None,
    auto_invariants: bool = True,
    check_concentration: bool = False,
    compute_lower: bool = True,
    max_multiplicands: Optional[int] = None,
    mode: str = "auto",
    invariant_domain: str = "interval",
    check: str = "off",
) -> PreparedTask:
    """The degree-independent stage of :func:`analyze`, run once per task.

    Every argument is validated before any work, then: CFG, lint,
    the merged Gamma, regime classification (with forced-mode
    warnings) and the optional concentration certificate.  The lint
    and Gamma generation share one fixpoint.  Parameters are those of
    :func:`analyze`.
    """
    if check not in ("off", "warn", "strict"):
        raise ValueError("check must be 'off', 'warn' or 'strict'")
    if invariant_domain not in INVARIANT_DOMAINS:
        raise ValueError(
            f"invariant_domain must be one of {INVARIANT_DOMAINS}, got {invariant_domain!r}"
        )
    if mode not in ("auto", "signed", "nonnegative"):
        raise ValueError("mode must be 'auto', 'signed' or 'nonnegative'")
    if isinstance(program, str):
        program = parse_program(program)
    cfg = build_cfg(program)

    if isinstance(invariants, InvariantMap):
        # Copy before strengthening below: the caller's map may be
        # cached/shared and must not observe our additions.
        inv = invariants.copy()
    elif invariants is not None:
        inv = InvariantMap.from_strings(cfg, dict(invariants))
    else:
        inv = InvariantMap.trivial()

    diagnostics = None
    fixpoint = None
    if check != "off":
        # Lint against the *user's* invariants, before auto
        # strengthening mixes in generated rows.  It runs ahead of the
        # valuation check below so that REP001 reports unknown
        # variables as a finding.
        from ..check import check_cfg

        check_result = check_cfg(
            cfg,
            init,
            inv if invariants is not None else None,
            invariant_domain=invariant_domain,
        )
        if check == "strict" and not check_result.ok:
            from ..errors import CheckError

            codes = ", ".join(sorted({d.code for d in check_result.errors}))
            raise CheckError(
                f"rejected by static checks ({codes}): "
                + "; ".join(d.format() for d in check_result.errors),
                diagnostics=check_result.diagnostics,
            )
        diagnostics = list(check_result.diagnostics)
        fixpoint = check_result.octagon if invariant_domain == "octagon" else check_result.analysis

    unknown_vars = set(init) - set(cfg.pvars)
    if unknown_vars:
        from ..errors import SemanticsError

        raise SemanticsError(f"initial valuation mentions unknown variables: {sorted(unknown_vars)}")
    if auto_invariants:
        strengthen_invariants(inv, cfg, init, invariant_domain, fixpoint)

    detected = classify(cfg, inv)
    warnings: List[str] = []
    if mode == "signed" and detected.name != "signed-bounded-update":
        warnings.append(
            f"forced signed regime but side conditions detect {detected.name!r}; "
            "soundness relies on external justification of the update bounds"
        )
    elif mode == "nonnegative" and not detected.reports["nonnegative_costs"]:
        warnings.append(
            "forced nonnegative regime but some costs may be negative; "
            "the upper bound is not covered by Theorem 6.14"
        )
    if mode != "auto":
        signed = mode == "signed"
        detected = AnalysisMode(
            name="signed-bounded-update" if signed else "nonnegative-general-update",
            upper=True,
            lower=signed,
            require_nonnegative_template=not signed,
            reports=detected.reports,
        )
    if detected.name == "unsupported":
        warnings.append(
            "program has both negative costs and unbounded updates; "
            "no soundness theorem of the paper applies (Section 10)"
        )

    concentration = None
    if check_concentration:
        concentration = certify_concentration(cfg, inv, init)
        if concentration is None:
            warnings.append("no linear ranking supermartingale found; concentration unverified")
        elif not concentration.certifies_concentration:
            warnings.append("RSM found but updates are unbounded; concentration unverified")

    return PreparedTask(
        program=program,
        cfg=cfg,
        init=dict(init),
        invariants=inv,
        mode=detected,
        compute_lower=compute_lower,
        max_multiplicands=max_multiplicands,
        concentration=concentration,
        warnings=warnings,
        diagnostics=diagnostics,
    )


def analyze(
    program: Union[str, Program],
    init: Mapping[str, float],
    invariants: Optional[Union[InvariantMap, Mapping[int, object]]] = None,
    degree: int = 2,
    auto_invariants: bool = True,
    check_concentration: bool = False,
    compute_lower: bool = True,
    max_multiplicands: Optional[int] = None,
    mode: str = "auto",
    invariant_domain: str = "interval",
    tails: bool = False,
    tail_horizon: Optional[int] = None,
    tail_probes: Optional[List[float]] = None,
    check: str = "off",
) -> CostAnalysisResult:
    """Run the full expected-cost analysis on ``program``.

    Equivalent to ``prepare(...).step(degree)`` plus the optional tail
    bound.

    Parameters
    ----------
    program:
        Source text or a parsed :class:`Program`.
    init:
        The initial valuation ``v*`` the bounds are optimized for.
    invariants:
        Optional per-label annotations (an :class:`InvariantMap` or a
        ``{label: condition-string}`` mapping, cf. Figure 9).
    degree:
        Template degree ``d``.
    auto_invariants:
        Strengthen annotations with automatically generated interval
        invariants (on by default; the paper uses StInG similarly).
    check_concentration:
        Also synthesize a ranking supermartingale witnessing the
        concentration side condition of Theorems 6.10/6.12.
    compute_lower:
        Attempt the PLCS lower bound when the regime admits one.
    mode:
        ``"auto"`` classifies the soundness regime from the side
        conditions; ``"signed"`` forces the Section 6.2 regime (upper
        and lower bounds, no nonnegativity requirement on ``h``) and
        ``"nonnegative"`` forces the Section 6.3 regime (upper bound
        with nonnegative ``h``).  Forcing a regime whose side
        conditions fail is recorded as a warning, not an error — this
        mirrors how the paper's experiments treat e.g. the nested-loop
        benchmark.
    invariant_domain:
        The abstract domain of the automatic invariant generator:
        ``"interval"`` (default; per-variable boxes) or ``"octagon"``
        (relational ``+-x +-y <= c`` constraints).  Under the octagon
        domain the inferred relational rows are also *conjoined* into
        hand-annotated labels (they are sound by construction, so the
        merge only strengthens Gamma), and the lint pass gains the
        REP013/REP014 relational annotation checks.
    tails:
        Also derive an Azuma–Hoeffding concentration bound
        ``P[cost >= E + t, T <= n] <= exp(-t^2/(2 c^2 n))`` from the
        upper certificate (:mod:`repro.analysis.tails`).  ``tail_horizon``
        is the step horizon ``n`` (default 1e6, the interpreter's
        truncation default) and ``tail_probes`` the offsets ``t`` to
        pre-evaluate.  Unavailability (no constant difference bound at
        any tried degree) is a warning, not an error.
    check:
        Run the static lint pass (:mod:`repro.check`) first.  ``"off"``
        (default) skips it; ``"warn"`` attaches the findings to
        ``result.diagnostics`` and proceeds; ``"strict"`` additionally
        raises :class:`~repro.errors.CheckError` on any error-severity
        finding *before* any LP work.  Only user-supplied invariants
        are validated — the auto-generated invariants are consistent
        with the abstract states by construction.
    """
    result = prepare(
        program,
        init,
        invariants,
        auto_invariants=auto_invariants,
        check_concentration=check_concentration,
        compute_lower=compute_lower,
        max_multiplicands=max_multiplicands,
        mode=mode,
        invariant_domain=invariant_domain,
        check=check,
    ).step(degree)
    if tails:
        attach_tail_bound(
            result,
            horizon=tail_horizon,
            probes=tail_probes,
            max_multiplicands=max_multiplicands,
        )
    return result


def escalate(
    task: PreparedTask,
    degrees: Sequence[int],
    settings,
    on_rung: Optional[Callable[[int], None]] = None,
) -> CostAnalysisResult:
    """Climb the degree ladder ``degrees`` over one prepared task.

    Keeps the first complete rung, else the last, and attaches the
    tail bound to it once when ``settings.tails`` is set; ``settings``
    is an :class:`~repro.api.AnalysisOptions` or an
    :class:`~repro.batch.spec.AnalysisRequest` (name-aligned fields).
    ``on_rung`` is told each degree before it is tried.  The one
    escalation loop behind the batch engine,
    :meth:`~repro.programs.Benchmark.analyze_with` and
    :meth:`~repro.api.Analyzer.synthesize`.
    """
    if not degrees:
        raise ValueError("the degree ladder is empty")
    last = len(degrees) - 1
    for index, degree in enumerate(degrees):
        if on_rung is not None:
            on_rung(degree)
        result = task.step(degree, final=index == last)
        if result.complete_for(task.compute_lower):
            break
    if settings.tails:
        probes = settings.tail_probes
        attach_tail_bound(
            result,
            horizon=settings.tail_horizon,
            probes=list(probes) if probes else None,
            max_multiplicands=settings.max_multiplicands,
        )
    return result


def attach_tail_bound(
    result: CostAnalysisResult,
    horizon: Optional[int] = None,
    probes: Optional[List[float]] = None,
    max_multiplicands: Optional[int] = None,
) -> None:
    """Derive the Azuma–Hoeffding tail bound and attach it to ``result``.

    Unavailability (no upper certificate, or no constant
    step-difference bound at any tried degree) becomes a warning, not
    an error.  :func:`escalate` calls this once on the rung it keeps
    rather than paying the auxiliary LP at every discarded degree.
    """
    from .tails import derive_tail_bound

    if result.upper is None:
        result.warnings.append("tail bound unavailable: no upper bound was synthesized")
        return
    try:
        result.tail = derive_tail_bound(
            result,
            horizon=horizon,
            probes=probes,
            max_multiplicands=max_multiplicands,
        )
    except (InfeasibleError, UnboundedError, SynthesisError) as exc:
        result.warnings.append(
            f"tail bound unavailable: no constant step-difference bound ({exc})"
        )
        return
    if result.tail.refit:
        result.warnings.append(
            f"tail bound derived from a degree-1 refit certificate "
            f"(anchor {result.tail.expected:.6g}): the reported degree-"
            f"{result.upper.degree} certificate has no constant "
            "step-difference bound"
        )
