"""The Verifier facade: typed specs in, typed verdicts out.

One object, two modes:

* :meth:`Verifier.check` decides a :class:`PropertySpec` *offline* over
  all runs (the paper's BSR reductions, via the engine backends in
  ``repro.verify.*``);
* :meth:`Verifier.check_run` decides the same spec over one *concrete*
  input sequence, stage by stage, with the plan-backed monitors of
  :mod:`repro.verify.api.monitor` -- exactly what the
  :class:`~repro.verify.api.auditor.OnlineAuditor` does to a live pod,
  so offline-on-the-full-log and online-stepwise agree by construction.

Every failing :class:`Verdict` carries a
:class:`~repro.verify.api.trace.CounterexampleTrace` whose replay
through a fresh :class:`~repro.pods.service.PodService` reproduces the
recorded violating log; passing verdicts for existential questions
(valid log, reachable goal) carry the supporting witness trace instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import SpecError
from repro.logic.bsr import GroundingStats
from repro.logic.fol import Forall, Not, Rel
from repro.datalog.ast import Variable
from repro.verify.containment import (
    check_log_containment,
    check_pointwise_log_equality,
)
from repro.verify.errorfree import check_error_free_property
from repro.verify.logvalidity import check_log_validity, coerce_log_entries
from repro.verify.reachability import check_goal_reachability
from repro.verify.temporal import check_temporal_property
from repro.verify.api.monitor import StageView, build_monitor
from repro.verify.api.specs import (
    AllOf,
    AnyOf,
    ErrorFreeness,
    GoalReachability,
    LogValidity,
    PropertySpec,
    TemporalProperty,
)
from repro.verify.api.trace import (
    KIND_COUNTEREXAMPLE,
    KIND_WITNESS,
    CounterexampleTrace,
    trace_from_run,
)

if TYPE_CHECKING:
    from repro.core.spocus import SpocusTransducer
    from repro.relalg.instance import Instance


@dataclass(frozen=True)
class Verdict:
    """The typed outcome of checking one spec.

    ``trace`` is the counterexample when the spec fails, or the
    supporting witness for passing existential specs; ``children``
    carries the per-child verdicts of a combinator.  Truthiness follows
    ``holds``, so ``if verifier.check(spec): ...`` reads naturally.
    """

    spec: PropertySpec
    holds: bool
    trace: CounterexampleTrace | None = None
    backend: str = ""
    detail: str = ""
    stats: GroundingStats | None = field(default=None, compare=False)
    children: tuple["Verdict", ...] = ()

    def __bool__(self) -> bool:
        return self.holds

    @property
    def counterexample(self) -> CounterexampleTrace | None:
        """The trace, when it demonstrates a violation."""
        if self.trace is not None and self.trace.kind == KIND_COUNTEREXAMPLE:
            return self.trace
        return None


class Verifier:
    """Checks :class:`PropertySpec` objects against one transducer.

    ``database=None`` leaves the database uninterpreted, giving the
    stronger schema-level answers where the backends support it; the
    trace of a failing schema-level check then carries the decoded
    witness database so it still replays deterministically.
    """

    def __init__(
        self,
        transducer: "SpocusTransducer",
        database=None,
        *,
        replay: bool = True,
    ) -> None:
        self.transducer = transducer
        self.database: "Instance | None" = (
            transducer.coerce_database(database) if database is not None else None
        )
        self.replay = replay

    # -- offline (all-runs / given-log) checks ---------------------------------

    def check(self, spec: PropertySpec) -> Verdict:
        """Decide a spec with the paper's offline decision procedures."""
        if isinstance(spec, LogValidity):
            return self._check_log_validity(spec)
        if isinstance(spec, GoalReachability):
            return self._check_reachability(spec)
        if isinstance(spec, TemporalProperty):
            return self._check_temporal(spec, spec.formula)
        if isinstance(spec, ErrorFreeness):
            return self._check_error_freeness(spec)
        if isinstance(spec, AllOf):
            children = tuple(self.check(child) for child in spec.specs)
            failing = next((v for v in children if not v.holds), None)
            return Verdict(
                spec,
                failing is None,
                trace=failing.trace if failing is not None else None,
                backend="all_of",
                detail=failing.detail if failing is not None else "",
                children=children,
            )
        if isinstance(spec, AnyOf):
            children = tuple(self.check(child) for child in spec.specs)
            passing = next((v for v in children if v.holds), None)
            first = children[0]
            return Verdict(
                spec,
                passing is not None,
                trace=passing.trace if passing is not None else first.trace,
                backend="any_of",
                detail="" if passing is not None else first.detail,
                children=children,
            )
        raise SpecError(f"cannot check spec type {type(spec).__name__}")

    def check_all(self, *specs: PropertySpec) -> list[Verdict]:
        return [self.check(spec) for spec in specs]

    # -- per-spec backends -----------------------------------------------------

    def _check_log_validity(self, spec: LogValidity) -> Verdict:
        if not spec.log:
            raise SpecError(
                "offline LogValidity needs the log to validate; the log-less "
                "form is for online auditing of a session's own log"
            )
        transducer = self.transducer
        entries = coerce_log_entries(transducer, spec.log)
        result = check_log_validity(
            transducer, self.database, entries, replay=self.replay
        )
        if result.valid:
            trace = trace_from_run(
                KIND_WITNESS,
                result.witness_inputs or (),
                entries,
                database=result.witness_database,
                property_name=spec.describe(),
            )
            return Verdict(
                spec, True, trace=trace, backend="logvalidity",
                stats=result.stats,
            )
        # Locate the first unrealizable step: log prefixes of valid logs
        # are valid, so validity is downward closed and the first invalid
        # prefix pinpoints the violation.  The full log is already known
        # invalid, so only proper prefixes need deciding.
        witness: list = []
        witness_db = None
        first_bad = len(entries)
        for k in range(1, len(entries)):
            prefix_result = check_log_validity(
                transducer, self.database, entries[:k], replay=False
            )
            if not prefix_result.valid:
                first_bad = k
                break
            witness = prefix_result.witness_inputs or []
            witness_db = prefix_result.witness_database
        trace = trace_from_run(
            KIND_COUNTEREXAMPLE,
            witness,
            entries[: first_bad - 1],
            database=witness_db,
            step=first_bad,
            violation=(
                f"log step {first_bad} cannot extend any realization of "
                f"steps 1..{first_bad - 1}"
            ),
            property_name=spec.describe(),
        )
        return Verdict(
            spec, False, trace=trace, backend="logvalidity",
            detail=trace.violation, stats=result.stats,
        )

    def _require_database(self, what: str) -> "Instance":
        if self.database is None:
            raise SpecError(f"{what} needs a concrete database")
        return self.database

    def _check_reachability(self, spec: GoalReachability) -> Verdict:
        database = self._require_database("GoalReachability")
        transducer = self.transducer
        result = check_goal_reachability(
            transducer, database, spec.goal, prefix=spec.prefix,
            replay=self.replay,
        )
        if result.reachable:
            witness = result.witness_inputs or []
            run = transducer.run(database, witness)
            trace = trace_from_run(
                KIND_WITNESS, witness, run.logs,
                step=len(witness) or None,
                property_name=spec.describe(),
            )
            return Verdict(
                spec, True, trace=trace, backend="reachability",
                stats=result.stats,
            )
        prefix = [transducer.coerce_input(step) for step in spec.prefix]
        run = transducer.run(database, prefix)
        trace = trace_from_run(
            KIND_COUNTEREXAMPLE, prefix, run.logs,
            step=len(prefix) or None,
            violation="goal is unreachable from here: " + spec.describe(),
            property_name=spec.describe(),
        )
        return Verdict(
            spec, False, trace=trace, backend="reachability",
            detail=trace.violation, stats=result.stats,
        )

    def _violating_stage(self, spec, transducer, database, inputs) -> tuple:
        """(run, first violating 1-based stage or None) for a monitor."""
        run = transducer.run(database, inputs)
        monitor = build_monitor(spec, transducer, database)
        for index in range(len(run.inputs)):
            stage = self._stage_view(run, index)
            if monitor.observe(stage):
                return run, index + 1
        return run, None

    @staticmethod
    def _stage_view(run, index: int) -> StageView:
        return StageView(
            step=index + 1,
            inputs=run.inputs[index],
            output=run.outputs[index],
            state_before=(
                run.states[index - 1] if index > 0 else _initial_state_like(run)
            ),
            state_after=run.states[index],
            log_entry=run.logs[index],
            inputs_so_far=tuple(run.inputs[: index + 1]),
            log_so_far=tuple(run.logs[: index + 1]),
        )

    def _check_temporal(
        self, spec: PropertySpec, formula, backend: str = "temporal"
    ) -> Verdict:
        transducer = self.transducer
        result = check_temporal_property(
            transducer, formula, self.database, replay=self.replay
        )
        if result.holds:
            return Verdict(spec, True, backend=backend, stats=result.stats)
        witness = result.counterexample_inputs or []
        replay_db = (
            self.database
            if self.database is not None
            else result.counterexample_database
        )
        if replay_db is None:  # pragma: no cover - decoded above
            replay_db = transducer.coerce_database({})
        run, stage = self._violating_stage(
            spec if isinstance(spec, TemporalProperty) else TemporalProperty(formula),
            transducer, replay_db, witness,
        )
        trace = trace_from_run(
            KIND_COUNTEREXAMPLE, witness, run.logs,
            database=result.counterexample_database,
            step=stage,
            violation=(
                f"run violates {spec.describe()}"
                + (f" at stage {stage}" if stage else "")
            ),
            property_name=spec.describe(),
        )
        return Verdict(
            spec, False, trace=trace, backend=backend,
            detail=trace.violation, stats=result.stats,
        )

    def _check_error_freeness(self, spec: ErrorFreeness) -> Verdict:
        transducer = self.transducer
        if spec.sentence is None:
            if spec.error_relation not in transducer.schema.outputs:
                raise SpecError(
                    f"ErrorFreeness: {spec.error_relation!r} is not an "
                    "output relation of the transducer"
                )
            arity = transducer.schema.outputs.arity(spec.error_relation)
            variables = tuple(Variable(f"E{i}") for i in range(arity))
            formula = Not(Rel(spec.error_relation, variables))
            if variables:
                formula = Forall(variables, formula)
            return self._check_temporal(spec, formula, backend="errorfree")
        result = check_error_free_property(
            transducer, spec.sentence, self.database,
            error_relation=spec.error_relation,
        )
        if result.holds:
            return Verdict(spec, True, backend="errorfree", stats=result.stats)
        witness = result.counterexample_inputs or []
        replay_db = (
            self.database
            if self.database is not None
            else result.counterexample_database
        )
        if replay_db is None:  # pragma: no cover - decoded above
            replay_db = transducer.coerce_database({})
        run = transducer.run(replay_db, witness)
        trace = trace_from_run(
            KIND_COUNTEREXAMPLE, witness, run.logs,
            database=result.counterexample_database,
            step=len(witness) or None,
            violation=(
                "an error-free run violates the Tsdi discipline at its "
                f"last stage ({spec.describe()})"
            ),
            property_name=spec.describe(),
        )
        return Verdict(
            spec, False, trace=trace, backend="errorfree",
            detail=trace.violation, stats=result.stats,
        )

    # -- concrete-run checks (the audit view) ----------------------------------

    def check_run(
        self,
        spec: PropertySpec,
        inputs: Sequence,
        *,
        transducer: "SpocusTransducer | None" = None,
        database=None,
    ) -> Verdict:
        """Check a spec stage-by-stage over one concrete input sequence.

        ``transducer`` is the implementation that executes the run
        (default: this verifier's own); the verifier's transducer stays
        the *reference* model for log-validity and reachability audits.
        This is exactly the computation the online auditor performs on a
        live pod, so its verdicts match stepwise audit findings.
        """
        served = transducer if transducer is not None else self.transducer
        if database is not None:
            db = served.coerce_database(database)
        else:
            db = self._require_database("check_run")
        run = served.run(db, [served.coerce_input(step) for step in inputs])
        monitor = build_monitor(spec, served, db, reference=self.transducer)
        for index in range(len(run.inputs)):
            stage = self._stage_view(run, index)
            violations = monitor.observe(stage)
            if violations:
                step = index + 1
                trace = trace_from_run(
                    KIND_COUNTEREXAMPLE,
                    run.inputs[:step],
                    run.logs[:step],
                    step=step,
                    violation="; ".join(violations),
                    property_name=spec.describe(),
                )
                return Verdict(
                    spec, False, trace=trace, backend="monitor",
                    detail=trace.violation,
                )
        return Verdict(spec, True, backend="monitor")

    # -- containment (two-transducer questions) --------------------------------

    def check_containment(
        self, smaller: "SpocusTransducer", *, pointwise: bool = False
    ) -> Verdict:
        """Theorem 3.5 containment of ``smaller``'s logs in this model's.

        ``pointwise=True`` uses the partial-log sufficient criterion
        instead (the ``short``/``friendly`` comparison).  The verifier's
        transducer plays T₁ (the reference model); ``smaller`` the
        customization.  Containment has no single-transducer spec class:
        it stays a method because its counterexample separates *two*
        transducers, but the verdict and trace are the same shapes.
        """
        checker = (
            check_pointwise_log_equality if pointwise else check_log_containment
        )
        result = checker(self.transducer, smaller, self.database)
        if result.contained:
            return Verdict(
                _ContainmentSpec(pointwise), True, backend="containment",
                stats=result.stats,
            )
        trace = None
        if result.separating_inputs is not None and self.database is not None:
            db = smaller.coerce_database(self.database)
            run = smaller.run(db, result.separating_inputs)
            relation, step = result.difference or ("?", None)
            trace = trace_from_run(
                KIND_COUNTEREXAMPLE,
                result.separating_inputs,
                run.logs,
                step=step,
                violation=(
                    f"logs diverge on relation {relation!r} at step {step} "
                    "(trace replays the customization's log)"
                ),
            )
        return Verdict(
            _ContainmentSpec(pointwise), False, trace=trace,
            backend="containment",
            detail=trace.violation if trace else "logs diverge",
            stats=result.stats,
        )


@dataclass(frozen=True)
class _ContainmentSpec(PropertySpec):
    """Synthetic spec standing in for the two-transducer containment check."""

    pointwise: bool = False

    def describe(self) -> str:
        return (
            "pointwise log equality" if self.pointwise else "log containment"
        )


def _initial_state_like(run):
    """The empty state instance matching a run's state schema."""
    from repro.relalg.instance import Instance

    schema = run.states[0].schema
    return Instance(schema, {name: frozenset() for name in schema.names})
