"""Goal reachability (Theorem 3.2) and the progress variant.

A *goal* is a sentence ∃x̄ (A₁ ∧ … ∧ A_k) where each Aᵢ is a positive or
negative literal over an output relation.  Reachability asks whether
some run of the transducer satisfies the goal in its *last* output.

The key lemma (proof of Theorem 3.2): since Spocus outputs depend only
on the current input, the database, and the accumulated past, the last
output of any run equals the last output of a two-step run whose first
input is the union of all earlier inputs.  So only runs of length two
need be considered, and the question reduces to a BSR sentence over two
copies of the input schema.

The partial-run variant ("is the goal still reachable after this
prefix?") encodes the prefix's accumulated inputs as a *lower bound* on
the first step -- the continuation may add arbitrary further inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.spocus import SpocusTransducer
from repro.datalog.ast import Constant, Variable
from repro.errors import VerificationError
from repro.logic.bsr import GroundingStats, decide_bsr
from repro.logic.fol import Formula, Not, conjoin
from repro.logic.fol import exists as fol_exists
from repro.relalg.instance import Instance
from repro.verify.deprecation import warn_legacy
from repro.verify.encoder import RunEncoder, decode_input_sequence


@dataclass(frozen=True)
class Goal:
    """A reachability goal: ∃x̄ of a conjunction of output literals.

    ``positive`` and ``negative`` are lists of (relation, terms) pairs;
    terms may mix :class:`Variable` and :class:`Constant`.  All
    variables are implicitly existentially quantified.
    """

    positive: tuple[tuple[str, tuple], ...] = ()
    negative: tuple[tuple[str, tuple], ...] = ()

    @classmethod
    def atoms(cls, **facts) -> "Goal":
        """Goal from keyword ground facts: ``Goal.atoms(deliver=('time',))``."""
        positive = []
        for name, row in facts.items():
            positive.append(
                (name, tuple(Constant(v) for v in row))
            )
        return cls(tuple(positive))

    def variables(self) -> list[Variable]:
        seen: dict[Variable, None] = {}
        for _name, terms in self.positive + self.negative:
            for term in terms:
                if isinstance(term, Variable):
                    seen.setdefault(term)
        return list(seen)

    def formula_at(self, encoder: RunEncoder, step: int) -> Formula:
        """The goal instantiated at a run step via output definitions."""
        literals: list[Formula] = []
        for name, terms in self.positive:
            literals.append(encoder.output_formula(name, terms, step))
        for name, terms in self.negative:
            literals.append(Not(encoder.output_formula(name, terms, step)))
        return fol_exists(self.variables(), conjoin(literals))


@dataclass
class ReachabilityResult:
    reachable: bool
    witness_inputs: list[Instance] | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)


def is_goal_reachable(
    transducer: SpocusTransducer,
    database: dict | Instance,
    goal: Goal,
    prefix: Sequence[dict | Instance] = (),
    replay: bool = True,
) -> ReachabilityResult:
    """Deprecated seed-era entry point; see :func:`check_goal_reachability`."""
    warn_legacy("is_goal_reachable", "GoalReachability")
    return check_goal_reachability(
        transducer, database, goal, prefix=prefix, replay=replay
    )


def check_goal_reachability(
    transducer: SpocusTransducer,
    database: dict | Instance,
    goal: Goal,
    prefix: Sequence[dict | Instance] = (),
    replay: bool = True,
) -> ReachabilityResult:
    """Decide whether ``goal`` is reachable, optionally after ``prefix``.

    With a non-empty prefix this answers the paper's *progress*
    question: can the goal still be attained from the state the prefix
    has reached?

    This is the engine behind the
    :class:`repro.verify.api.GoalReachability` spec; prefer checking
    specs through a :class:`~repro.verify.api.Verifier`.
    """
    db = transducer.coerce_database(database)
    encoder = RunEncoder(transducer, 2)
    conjuncts: list[Formula] = []

    accumulated: dict[str, set[tuple]] = {
        rel.name: set() for rel in transducer.schema.inputs
    }
    for raw in prefix:
        instance = transducer.coerce_input(raw)
        for rel in transducer.schema.inputs:
            accumulated[rel.name] |= set(instance[rel.name])
    for name, rows in accumulated.items():
        if rows:
            conjuncts.append(encoder.input_membership_axiom(name, 1, rows))

    conjuncts.append(goal.formula_at(encoder, 2))
    sentence = conjoin(conjuncts)
    extra = encoder.constants(database=db)
    for rows in accumulated.values():
        for row in rows:
            extra |= set(row)
    result = decide_bsr(
        sentence,
        extra_constants=tuple(sorted(extra, key=repr)),
        known=encoder.known_database(db),
    )
    if not result.satisfiable:
        return ReachabilityResult(False, stats=result.stats)
    assert result.model is not None
    witness = decode_input_sequence(transducer, 2, result.model)
    if replay:
        run = transducer.run(db, witness)
        if not _goal_holds(goal, run.last_output):
            raise VerificationError(
                "internal error: decoded witness does not satisfy the goal"
            )
    return ReachabilityResult(True, witness, stats=result.stats)


def _goal_holds(goal: Goal, output: Instance) -> bool:
    """Evaluate a goal against a concrete output instance."""
    domain = set(output.active_domain())
    for _name, terms in goal.positive + goal.negative:
        for term in terms:
            if isinstance(term, Constant):
                domain.add(term.value)
    variables = goal.variables()

    def check(binding: dict[Variable, object]) -> bool:
        for name, terms in goal.positive:
            row = tuple(
                term.value if isinstance(term, Constant) else binding[term]
                for term in terms
            )
            if row not in output[name]:
                return False
        for name, terms in goal.negative:
            row = tuple(
                term.value if isinstance(term, Constant) else binding[term]
                for term in terms
            )
            if row in output[name]:
                return False
        return True

    if not variables:
        return check({})

    def search(index: int, binding: dict[Variable, object]) -> bool:
        if index == len(variables):
            return check(binding)
        for value in domain:
            binding[variables[index]] = value
            if search(index + 1, binding):
                return True
        del binding[variables[index]]
        return False

    return bool(domain) and search(0, {})
