"""Typed property specifications.

A :class:`PropertySpec` names *what* to verify about a transducer,
independent of *how*: the :class:`~repro.verify.api.verifier.Verifier`
compiles a spec against a transducer into the right decision procedure
(offline, over all runs or a given log), and the
:class:`~repro.verify.api.auditor.OnlineAuditor` compiles the same spec
into a per-step monitor over a live pod.  The leaves mirror the paper's
decidable questions:

* :class:`LogValidity` -- Theorem 3.1: the (given or observed) log is a
  valid log of the reference transducer;
* :class:`GoalReachability` -- Theorem 3.2 and the progress variant: the
  goal is (still) attainable;
* :class:`TemporalProperty` -- Theorem 3.3: a T_past-input sentence
  holds at every stage;
* :class:`ErrorFreeness` -- Theorems 4.1/4.4: no ``error`` output, or a
  Tsdi input discipline over error-free runs;

plus the boolean combinators :class:`AllOf` / :class:`AnyOf`, whose
verdicts aggregate their children's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpecError
from repro.logic.fol import Formula
from repro.verify.reachability import Goal
from repro.verify.tsdi import TsdiConjunct, TsdiSentence


class PropertySpec:
    """Base class of all property specifications (pure data)."""

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def children(self) -> tuple["PropertySpec", ...]:
        """Child specs of a combinator; empty for leaves."""
        return ()


@dataclass(frozen=True)
class LogValidity(PropertySpec):
    """The log is a valid log of the reference transducer (Thm 3.1).

    Offline, ``log`` is the sequence to validate (facts-dicts or
    :class:`~repro.relalg.instance.Instance` objects).  Online, leave
    ``log`` unset: the auditor validates the *session's own growing
    log* against the reference transducer -- the paper's audit notion,
    catching a deployed implementation whose observable behaviour
    drifts from the specification model.
    """

    log: tuple = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "log", tuple(self.log))

    def describe(self) -> str:
        if self.name:
            return self.name
        if self.log:
            return f"log of {len(self.log)} step(s) is valid"
        return "session log is valid for the reference transducer"


@dataclass(frozen=True)
class GoalReachability(PropertySpec):
    """The goal is (still) reachable (Thm 3.2 / progress).

    Offline, reachability is decided after the optional ``prefix``.
    Online, the monitor re-decides after every step with the session's
    accumulated inputs as the prefix -- progress auditing; since
    continuations only shrink as inputs accumulate, a lost goal stays
    lost, so the monitor latches on the first violation.
    """

    goal: Goal
    prefix: tuple = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.goal, Goal):
            raise SpecError(
                f"GoalReachability needs a Goal, got {type(self.goal).__name__}"
            )
        object.__setattr__(self, "prefix", tuple(self.prefix))

    def describe(self) -> str:
        if self.name:
            return self.name
        parts = [f"{name}{tuple(map(str, terms))}" for name, terms in self.goal.positive]
        parts += [f"not {name}{tuple(map(str, terms))}" for name, terms in self.goal.negative]
        suffix = f" after {len(self.prefix)}-step prefix" if self.prefix else ""
        return "goal reachable: " + ", ".join(parts) + suffix


@dataclass(frozen=True)
class TemporalProperty(PropertySpec):
    """A T_past-input sentence holds at every stage (Thm 3.3).

    ``formula`` is a universally quantified Boolean combination of
    literals over output, state (``past-R``), and database relations.
    Offline the check covers *all* runs (and, with ``database=None`` on
    the verifier, all databases); online the monitor checks the
    session's actual stages, compiled to a delta-capable violation plan
    when the formula admits one.
    """

    formula: Formula
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.formula, Formula):
            raise SpecError(
                "TemporalProperty needs a repro.logic.fol.Formula, got "
                f"{type(self.formula).__name__}"
            )

    def describe(self) -> str:
        return self.name or f"always: {self.formula}"


@dataclass(frozen=True)
class ErrorFreeness(PropertySpec):
    """Runs stay error-free, or a Tsdi discipline holds on them.

    Without a sentence: no run ever derives the ``error_relation`` --
    offline via the T_past-input reduction, online by watching each
    step's output.  With a :class:`~repro.verify.tsdi.TsdiSentence`:
    offline, Theorem 4.4 (every error-free run satisfies the sentence);
    online, the sentence is compiled to error rules (Theorem 4.1) and
    each step is checked against the session's input and prior state.
    """

    sentence: TsdiSentence | None = None
    error_relation: str = "error"
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.sentence is not None and not isinstance(
            self.sentence, TsdiSentence
        ):
            raise SpecError(
                "ErrorFreeness needs a TsdiSentence (or None), got "
                f"{type(self.sentence).__name__}"
            )

    @classmethod
    def of_disciplines(
        cls, *conjuncts: TsdiConjunct, error_relation: str = "error"
    ) -> "ErrorFreeness":
        """Convenience: wrap Tsdi conjuncts into a sentence spec."""
        return cls(TsdiSentence.of(*conjuncts), error_relation=error_relation)

    def describe(self) -> str:
        if self.name:
            return self.name
        if self.sentence is None:
            return f"no {self.error_relation!r} output on any step"
        return (
            f"{len(self.sentence.conjuncts)} Tsdi discipline(s) hold on "
            "error-free runs"
        )


@dataclass(frozen=True)
class _Combinator(PropertySpec):
    specs: tuple[PropertySpec, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise SpecError(f"{type(self).__name__} needs at least one spec")
        for spec in self.specs:
            if not isinstance(spec, PropertySpec):
                raise SpecError(
                    f"{type(self).__name__} children must be PropertySpecs, "
                    f"got {type(spec).__name__}"
                )

    @property
    def children(self) -> tuple[PropertySpec, ...]:
        return self.specs

    @classmethod
    def of(cls, *specs: PropertySpec, name: str = ""):
        return cls(tuple(specs), name=name)


class AllOf(_Combinator):
    """Conjunction: holds iff every child spec holds."""

    def describe(self) -> str:
        return self.name or (
            "all of: " + "; ".join(s.describe() for s in self.specs)
        )


class AnyOf(_Combinator):
    """Disjunction: holds iff at least one child spec holds."""

    def describe(self) -> str:
        return self.name or (
            "any of: " + "; ".join(s.describe() for s in self.specs)
        )
