"""Shared transducer-to-FO encoding.

All of the paper's decision procedures view an n-step run of a Spocus
transducer as a first-order structure over an *extended schema* that
replicates each input relation once per step (proof of Theorem 3.1):
``R`` becomes ``R@1 … R@n``, and the state relation ``past-R`` at step
``j`` expands to the disjunction ``R@1 ∨ … ∨ R@(j-1)``.  Output
relations are not part of the structure at all: an output atom is
*defined* by the disjunction of its rules' bodies, with non-head body
variables existentially quantified.

:class:`RunEncoder` produces these formulas; the individual procedures
assemble them into Bernays-Schoenfinkel sentences and call
:func:`repro.logic.bsr.decide_bsr`.  :func:`decode_input_sequence`
converts a satisfying model back into a concrete input sequence so the
procedures can *replay* their witnesses through the real transducer.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.core.spocus import PAST_PREFIX, SpocusTransducer
from repro.datalog.ast import (
    Atom,
    Constant,
    Inequality,
    NegatedAtom,
    PositiveAtom,
    Rule,
    Term,
    Variable,
)
from repro.errors import VerificationError
from repro.logic.fol import (
    BOTTOM,
    Eq,
    Formula,
    Implies,
    Not,
    Rel,
    conjoin,
    disjoin,
)
from repro.logic.fol import exists as fol_exists
from repro.logic.fol import forall as fol_forall
from repro.logic.structures import Structure
from repro.relalg.instance import Instance

STEP_SEPARATOR = "@"


def step_relation(name: str, step: int) -> str:
    """The replicated relation name for input ``name`` at 1-based ``step``."""
    return f"{name}{STEP_SEPARATOR}{step}"


def split_step_relation(name: str) -> tuple[str, int] | None:
    """Inverse of :func:`step_relation`; None if not a step relation."""
    if STEP_SEPARATOR not in name:
        return None
    base, _, suffix = name.rpartition(STEP_SEPARATOR)
    if not suffix.isdigit():
        return None
    return base, int(suffix)


class RunEncoder:
    """Encodes n-step runs of a Spocus transducer as FO formulas.

    Steps are 1-based, matching the paper.  The encoder is pure: it
    only builds formulas; deciding them is the caller's business.
    """

    def __init__(self, transducer: SpocusTransducer, steps: int) -> None:
        if steps < 1:
            raise VerificationError("a run must have at least one step")
        self._transducer = transducer
        self._steps = steps
        self._fresh_counter = itertools.count()

    @property
    def transducer(self) -> SpocusTransducer:
        return self._transducer

    @property
    def steps(self) -> int:
        return self._steps

    # -- fresh variables -----------------------------------------------------------

    def fresh_variable(self, base: str = "u") -> Variable:
        return Variable(f"{base}%{next(self._fresh_counter)}")

    def fresh_variables(self, count: int, base: str = "u") -> tuple[Variable, ...]:
        return tuple(self.fresh_variable(base) for _ in range(count))

    # -- literal translation ---------------------------------------------------------

    def input_atom(self, name: str, terms: Sequence[Term], step: int) -> Formula:
        self._check_step(step)
        return Rel(step_relation(name, step), tuple(terms))

    def past_formula(
        self,
        name: str,
        terms: Sequence[Term],
        step: int,
        inclusive: bool = False,
    ) -> Formula:
        """``past-R`` at ``step``: R was input at some earlier step.

        With ``inclusive=True`` the current step counts as well: that is
        the state *after* the transition (S_i), which is how
        T_past-input sentences are evaluated (Theorem 3.3), whereas rule
        bodies see the state *before* it (S_{i-1}).
        """
        self._check_step(step)
        limit = step + 1 if inclusive else step
        return disjoin(
            Rel(step_relation(name, i), tuple(terms)) for i in range(1, limit)
        )

    def database_atom(self, name: str, terms: Sequence[Term]) -> Formula:
        return Rel(name, tuple(terms))

    def visible_literal(self, literal, step: int) -> Formula:
        """Translate a rule-body literal at a given step.

        Handles positive/negated atoms over input, state (``past-``),
        and database relations, plus inequalities -- exactly the literal
        forms Spocus rule bodies admit.
        """
        if isinstance(literal, Inequality):
            return Not(Eq(literal.left, literal.right))
        if isinstance(literal, (PositiveAtom, NegatedAtom)):
            formula = self._atom_formula(literal.atom, step)
            if isinstance(literal, NegatedAtom):
                return Not(formula)
            return formula
        raise VerificationError(f"untranslatable literal: {literal!r}")

    def _atom_formula(self, atom: Atom, step: int) -> Formula:
        schema = self._transducer.schema
        name = atom.predicate
        if name in schema.inputs:
            return self.input_atom(name, atom.terms, step)
        if name in schema.state:
            base = name[len(PAST_PREFIX):]
            return self.past_formula(base, atom.terms, step)
        if name in schema.database:
            return self.database_atom(name, atom.terms)
        raise VerificationError(
            f"atom {atom} is not over input/state/database relations"
        )

    def body_formula(self, rule: Rule, step: int) -> Formula:
        """The conjunction of a rule body's literals at ``step``."""
        return conjoin(
            self.visible_literal(literal, step) for literal in rule.body
        )

    # -- output definitions ------------------------------------------------------------

    def output_formula(
        self, predicate: str, terms: Sequence[Term], step: int
    ) -> Formula:
        """The defining formula of output atom ``predicate(terms)`` at ``step``.

        The formula is the disjunction, over the rules for ``predicate``,
        of the rule body with head variables unified against ``terms``
        and remaining body variables existentially quantified (the
        formula φ in the proof of Theorem 3.1).
        """
        schema = self._transducer.schema
        if predicate not in schema.outputs:
            raise VerificationError(f"{predicate!r} is not an output relation")
        rules = self._transducer.rules_for(predicate)
        disjuncts = []
        for rule in rules:
            disjuncts.append(self._rule_instance(rule, tuple(terms), step))
        return disjoin(disjuncts)

    def _rule_instance(
        self, rule: Rule, terms: tuple[Term, ...], step: int
    ) -> Formula:
        # Rename all rule variables apart from the provided terms.
        renaming: dict[Variable, Variable] = {}
        for variable in sorted(
            rule.head_variables() | rule.body_variables(), key=str
        ):
            renaming[variable] = self.fresh_variable(variable.name.lower())

        def rename_term(term: Term) -> Term:
            if isinstance(term, Variable):
                return renaming[term]
            return term

        equalities: list[Formula] = []
        binding: dict[Variable, Term] = {}
        for head_term, provided in zip(rule.head.terms, terms):
            if isinstance(head_term, Variable):
                renamed = renaming[head_term]
                if renamed in binding:
                    equalities.append(Eq(binding[renamed], provided))
                else:
                    binding[renamed] = provided
            else:  # constant in the head
                equalities.append(Eq(head_term, provided))

        def substitute_literal(literal):
            if isinstance(literal, Inequality):
                return Inequality(
                    self._apply(rename_term(literal.left), binding),
                    self._apply(rename_term(literal.right), binding),
                )
            atom = literal.atom
            new_terms = tuple(
                self._apply(rename_term(t), binding) for t in atom.terms
            )
            new_atom = Atom(atom.predicate, new_terms)
            return (
                PositiveAtom(new_atom)
                if isinstance(literal, PositiveAtom)
                else NegatedAtom(new_atom)
            )

        new_body = tuple(substitute_literal(l) for l in rule.body)
        body = conjoin(
            [self.visible_literal(l, step) for l in new_body] + equalities
        )
        free = body.free_variables() - {
            t for t in terms if isinstance(t, Variable)
        }
        # Quantify only the renamed rule variables, not the caller's.
        rule_vars = set(renaming.values())
        return fol_exists(sorted(free & rule_vars, key=str), body)

    @staticmethod
    def _apply(term: Term, binding: dict[Variable, Term]) -> Term:
        if isinstance(term, Variable) and term in binding:
            return binding[term]
        return term

    # -- exact-content axioms -------------------------------------------------------------

    def exact_content(
        self,
        membership: "callable",
        arity: int,
        rows: Iterable[tuple],
    ) -> Formula:
        """Axioms forcing a defined relation to equal ``rows``.

        ``membership(terms)`` must return the formula asserting that the
        tuple ``terms`` belongs to the relation.  Produces the
        conjunction of one ∃*FO membership sentence per tuple and one
        ∀*FO inclusion sentence, as in the proof of Theorem 3.1.
        """
        rows = [tuple(r) for r in rows]
        conjuncts: list[Formula] = []
        for row in rows:
            conjuncts.append(
                membership(tuple(Constant(value) for value in row))
            )
        xs = self.fresh_variables(arity, "x")
        tuple_cases = disjoin(
            conjoin(Eq(x, Constant(value)) for x, value in zip(xs, row))
            for row in rows
        )
        inclusion = fol_forall(xs, Implies(membership(xs), tuple_cases))
        if arity == 0:
            # ∀ over zero variables: the implication itself.
            inclusion = Implies(membership(()), tuple_cases if rows else BOTTOM)
        conjuncts.append(inclusion)
        return conjoin(conjuncts)

    def input_content_axiom(
        self, name: str, step: int, rows: Iterable[tuple]
    ) -> Formula:
        """Force input relation ``name`` at ``step`` to equal ``rows``."""
        arity = self._transducer.schema.inputs.arity(name)
        return self.exact_content(
            lambda terms: self.input_atom(name, terms, step), arity, rows
        )

    def input_membership_axiom(
        self, name: str, step: int, rows: Iterable[tuple]
    ) -> Formula:
        """Force ``rows`` ⊆ input relation ``name`` at ``step`` (no upper bound)."""
        return conjoin(
            self.input_atom(
                name, tuple(Constant(v) for v in row), step
            )
            for row in rows
        )

    def output_content_axiom(
        self, name: str, step: int, rows: Iterable[tuple]
    ) -> Formula:
        """Force output relation ``name`` at ``step`` to equal ``rows``."""
        arity = self._transducer.schema.outputs.arity(name)
        return self.exact_content(
            lambda terms: self.output_formula(name, terms, step), arity, rows
        )

    def database_axioms(self, database: Instance) -> Formula:
        """Fix every database relation to its instance content.

        The literal Theorem 3.1 encoding; the procedures pass
        :meth:`known_database` to :func:`decide_bsr` instead.
        """
        conjuncts = []
        for rel in self._transducer.schema.database:
            conjuncts.append(
                self.exact_content(
                    lambda terms, name=rel.name: self.database_atom(name, terms),
                    rel.arity,
                    database[rel.name],
                )
            )
        return conjoin(conjuncts)

    # -- known content -----------------------------------------------------------------

    def known_database(
        self, database: Instance | None
    ) -> dict[str, frozenset]:
        """The database as ``known`` content for :func:`decide_bsr`.

        Passing it as ``known`` decides the same sentences as
        conjoining :meth:`database_axioms`, without grounding them.
        ``None`` (an unknown database) fixes nothing.
        """
        if database is None:
            return {}
        return {
            rel.name: frozenset(database[rel.name])
            for rel in self._transducer.schema.database
        }

    def known_log_inputs(self, log: Sequence[Instance]) -> dict[str, frozenset]:
        """The logged inputs ``R@j`` of ``log`` as ``known`` content.

        The folded form of one :meth:`input_content_axiom` per logged
        input relation and step.
        """
        self._check_log_length(log)
        schema = self._transducer.schema
        return {
            step_relation(name, index + 1): frozenset(entry[name])
            for index, entry in enumerate(log)
            for name in schema.log
            if name in schema.inputs
        }

    # -- log axioms ---------------------------------------------------------------------

    def log_axioms(self, log: Sequence[Instance]) -> Formula:
        """The output half of "the run's log equals ``log``" (Theorem 3.1).

        One :meth:`output_content_axiom` per logged output relation and
        step.  The logged inputs are not asserted here: they are fixed
        by passing :meth:`known_log_inputs` to :func:`decide_bsr`.
        ``log`` must have exactly ``self.steps`` entries over the
        transducer's log schema.
        """
        self._check_log_length(log)
        schema = self._transducer.schema
        return conjoin(
            self.output_content_axiom(name, index + 1, entry[name])
            for index, entry in enumerate(log)
            for name in schema.log
            if name not in schema.inputs
        )

    def _check_log_length(self, log: Sequence[Instance]) -> None:
        if len(log) != self._steps:
            raise VerificationError(
                f"log has {len(log)} steps, encoder was built for "
                f"{self._steps}"
            )

    # -- miscellany ---------------------------------------------------------------------

    def error_free_axioms(self, error_relation: str = "error") -> Formula:
        """No ``error`` output at any step (negations of rule bodies)."""
        schema = self._transducer.schema
        if error_relation not in schema.outputs:
            return conjoin(())
        conjuncts: list[Formula] = []
        for step in range(1, self._steps + 1):
            for rule in self._transducer.rules_for(error_relation):
                body = self.body_formula(rule, step)
                variables = sorted(body.free_variables(), key=str)
                conjuncts.append(fol_forall(variables, Not(body)))
        return conjoin(conjuncts)

    def constants(
        self,
        database: Instance | None = None,
        log: Sequence[Instance] | None = None,
    ) -> set:
        """The constants relevant to an encoding (program ∪ db ∪ log)."""
        values: set = set(self._transducer.output_program.constants())
        if database is not None:
            values |= database.active_domain()
        if log is not None:
            for entry in log:
                values |= entry.active_domain()
        return values

    def _check_step(self, step: int) -> None:
        if not 1 <= step <= self._steps:
            raise VerificationError(
                f"step {step} outside encoded range 1..{self._steps}"
            )


def decode_input_sequence(
    transducer: SpocusTransducer, steps: int, model: Structure
) -> list[Instance]:
    """Extract the witness input sequence from a BSR model.

    Relations named ``R@j`` in the model become the content of input
    ``R`` at step ``j``; absent relations are empty.
    """
    schema = transducer.schema
    sequence = []
    for step in range(1, steps + 1):
        data: dict[str, frozenset[tuple]] = {}
        for rel in schema.inputs:
            data[rel.name] = frozenset(
                model.tuples(step_relation(rel.name, step))
            )
        sequence.append(Instance(schema.inputs, data))
    return sequence


def decode_database(
    transducer: SpocusTransducer, model: Structure
) -> Instance:
    """Extract the database relations from a BSR model (unknown-db mode)."""
    schema = transducer.schema
    data = {
        rel.name: frozenset(model.tuples(rel.name))
        for rel in schema.database
    }
    return Instance(schema.database, data)
