"""Verification over error-free runs (Theorems 4.4 and 4.6).

Whether every error-free run of a Spocus transducer satisfies a Tsdi
sentence is undecidable in general (Theorem 4.3: error rules can make a
transducer simulate a Turing machine, see
:mod:`repro.automata.tm_compiler`).  It becomes decidable when no
*negative state literal* occurs in the rules defining ``error``
(Theorem 4.4): then dropping steps from an error-free run keeps it
error-free, so a violation, if any, already occurs on a run of length
k+1 where k is the number of positive state literals in the violated
conjunct.  The bounded run is encoded over k+1 copies of the input
schema and decided as a BSR sentence.

Theorem 4.6 applies the same small-run argument to containment of
error-free runs (same schema, full log, positive-state error rules in
both transducers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spocus import SpocusTransducer
from repro.datalog.ast import NegatedAtom, PositiveAtom, Rule
from repro.errors import UndecidableError, VerificationError
from repro.logic.bsr import GroundingStats, decide_bsr
from repro.logic.fol import Formula, Not, Rel, conjoin
from repro.logic.fol import exists as fol_exists
from repro.logic.fol import forall as fol_forall
from repro.relalg.instance import Instance
from repro.verify.deprecation import warn_legacy
from repro.verify.encoder import (
    RunEncoder,
    decode_database,
    decode_input_sequence,
)
from repro.verify.tsdi import TsdiConjunct, TsdiSentence, _cnf_clauses

ERROR_RELATION = "error"


def _check_positive_state_errors(
    transducer: SpocusTransducer, error_relation: str = ERROR_RELATION
) -> None:
    """Raise unless error rules avoid negative state literals (Thm 4.4)."""
    state_names = set(transducer.schema.state.names)
    for rule in transducer.rules_for(error_relation):
        for atom in rule.negated_atoms():
            if atom.predicate in state_names:
                raise UndecidableError(
                    f"error rule {rule} negates state relation "
                    f"{atom.predicate!r}; Theorem 4.3 makes this "
                    "verification problem undecidable.  Theorem 4.4 "
                    "requires positive state literals only."
                )


def _count_positive_state_literals(
    transducer: SpocusTransducer, literals
) -> int:
    state_names = set(transducer.schema.state.names)
    return sum(
        1
        for literal in literals
        if isinstance(literal, PositiveAtom)
        and literal.atom.predicate in state_names
    )


@dataclass
class ErrorFreeVerdict:
    """Outcome of :func:`holds_on_error_free_runs`."""

    holds: bool
    counterexample_inputs: list[Instance] | None = None
    violated_conjunct: TsdiConjunct | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)
    counterexample_database: Instance | None = None


def holds_on_error_free_runs(
    transducer: SpocusTransducer,
    sentence: TsdiSentence,
    database: dict | Instance | None = None,
    error_relation: str = ERROR_RELATION,
) -> ErrorFreeVerdict:
    """Deprecated entry point; see :func:`check_error_free_property`."""
    warn_legacy("holds_on_error_free_runs", "ErrorFreeness")
    return check_error_free_property(
        transducer, sentence, database, error_relation=error_relation
    )


def check_error_free_property(
    transducer: SpocusTransducer,
    sentence: TsdiSentence,
    database: dict | Instance | None = None,
    error_relation: str = ERROR_RELATION,
) -> ErrorFreeVerdict:
    """Theorem 4.4: does every error-free run satisfy ``sentence``?

    Requires the transducer's error rules to use only positive state
    literals; otherwise :class:`UndecidableError` is raised.

    This is the engine behind the :class:`repro.verify.api.ErrorFreeness`
    spec; prefer checking specs through a
    :class:`~repro.verify.api.Verifier`.
    """
    _check_positive_state_errors(transducer, error_relation)
    db_instance: Instance | None = None
    if database is not None:
        db_instance = transducer.coerce_database(database)

    for conjunct in sentence.conjuncts:
        for clause in _cnf_clauses(conjunct.consequent):
            verdict = _check_conjunct_clause(
                transducer, conjunct, clause, db_instance, error_relation
            )
            if verdict is not None:
                return verdict
    return ErrorFreeVerdict(True)


def _check_conjunct_clause(
    transducer: SpocusTransducer,
    conjunct: TsdiConjunct,
    clause,
    db_instance: Instance | None,
    error_relation: str,
) -> ErrorFreeVerdict | None:
    """SAT-check the violation of one CNF clause of one conjunct.

    The violation %: ∃x̄ (φ ∧ ¬L₁ ∧ … ∧ ¬Lₙ) at the last step of an
    error-free run of length k+1, k = positive state literals of φ.
    Returns a failing verdict or None when this clause cannot be
    violated.
    """
    k = _count_positive_state_literals(transducer, conjunct.antecedent)
    steps = k + 1
    encoder = RunEncoder(transducer, steps)

    last = steps
    violation_parts: list[Formula] = [
        encoder.visible_literal(literal, last)
        for literal in conjunct.antecedent
    ]
    for atom_formula in clause:
        negated = NegatedAtom(
            _rel_to_atom(atom_formula)
        )
        violation_parts.append(encoder.visible_literal(negated, last))
    free_vars = sorted(
        conjoin(violation_parts).free_variables(), key=str
    )
    violation = fol_exists(free_vars, conjoin(violation_parts))

    sentence_fo = conjoin([violation, encoder.error_free_axioms(error_relation)])
    extra = encoder.constants(database=db_instance)
    result = decide_bsr(
        sentence_fo,
        extra_constants=tuple(sorted(extra, key=repr)),
        known=encoder.known_database(db_instance),
    )
    if not result.satisfiable:
        return None
    assert result.model is not None
    witness = decode_input_sequence(transducer, steps, result.model)
    return ErrorFreeVerdict(
        False,
        counterexample_inputs=witness,
        violated_conjunct=conjunct,
        stats=result.stats,
        counterexample_database=(
            decode_database(transducer, result.model)
            if db_instance is None
            else None
        ),
    )


def _rel_to_atom(formula: Rel):
    from repro.datalog.ast import Atom

    return Atom(formula.predicate, formula.terms)


@dataclass
class ErrorFreeContainment:
    """Outcome of :func:`errorfree_contains`."""

    contained: bool
    separating_inputs: list[Instance] | None = None
    firing_rule: Rule | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)


def errorfree_contains(
    first: SpocusTransducer,
    second: SpocusTransducer,
    database: dict | Instance | None = None,
    error_relation: str = ERROR_RELATION,
) -> ErrorFreeContainment:
    """Deprecated entry point; see :func:`check_error_free_containment`."""
    warn_legacy("errorfree_contains", "Verifier.check_containment")
    return check_error_free_containment(
        first, second, database, error_relation=error_relation
    )


def check_error_free_containment(
    first: SpocusTransducer,
    second: SpocusTransducer,
    database: dict | Instance | None = None,
    error_relation: str = ERROR_RELATION,
) -> ErrorFreeContainment:
    """Theorem 4.6: is every error-free run of ``first`` error-free for
    ``second``?

    Both transducers must share the input schema and use only positive
    state literals in error rules.  The procedure looks, for each error
    rule ρ of ``second``, for a run error-free for both up to the last
    step at which ρ fires for ``second`` while ``first`` stays
    error-free; the run length is bounded by ρ's positive state literal
    count plus one.
    """
    if set(first.schema.inputs.names) != set(second.schema.inputs.names):
        raise VerificationError(
            "Theorem 4.6 requires identical input schemas"
        )
    _check_positive_state_errors(first, error_relation)
    _check_positive_state_errors(second, error_relation)
    db_instance: Instance | None = None
    if database is not None:
        db_instance = first.coerce_database(database)

    for rule in second.rules_for(error_relation):
        k = _count_positive_state_literals(second, rule.body)
        steps = k + 1
        encoder_one = RunEncoder(first, steps)
        encoder_two = RunEncoder(second, steps)

        body = encoder_two.body_formula(rule, steps)
        fires = fol_exists(sorted(body.free_variables(), key=str), body)

        # Error-freeness of ``second`` on steps 1..k only (the violation
        # happens at the last step); ``first`` stays clean throughout.
        prefix_clean: list[Formula] = []
        for step in range(1, steps):
            for err_rule in second.rules_for(error_relation):
                rule_body = encoder_two.body_formula(err_rule, step)
                variables = sorted(rule_body.free_variables(), key=str)
                prefix_clean.append(fol_forall(variables, Not(rule_body)))

        sentence = conjoin([
            fires,
            conjoin(prefix_clean),
            encoder_one.error_free_axioms(error_relation),
        ])
        extra = encoder_one.constants(database=db_instance)
        extra |= encoder_two.constants()
        result = decide_bsr(
            sentence,
            extra_constants=tuple(sorted(extra, key=repr)),
            known=encoder_one.known_database(db_instance),
        )
        if result.satisfiable:
            assert result.model is not None
            witness = decode_input_sequence(second, steps, result.model)
            return ErrorFreeContainment(
                False,
                separating_inputs=witness,
                firing_rule=rule,
                stats=result.stats,
            )
    return ErrorFreeContainment(True)
