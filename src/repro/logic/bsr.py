"""Finite satisfiability for the Bernays-Schoenfinkel class.

Implements the decision procedure underlying every decidability theorem
in the paper.  A sentence ∃x₁…x_k ∀y₁…y_m φ (relational vocabulary,
constants, equality, no functions) is finitely satisfiable iff it has a
model over a domain consisting of the sentence's constants plus at most
k fresh elements (Ramsey 1930; the paper cites this as the basis of
Theorems 3.1-3.5, 4.4 and 4.6).  Under the unique-name assumption the
domain is therefore *fixed*, and satisfiability reduces to propositional
satisfiability:

* each existential variable gets an exactly-one block of *selector*
  variables ranging over the domain;
* universal variables are expanded by instantiation over the domain;
* ground relational atoms become propositional variables;
* equality between domain elements is identity (UNA), and equality
  involving existential variables translates to selector literals.

Grounding is *structural*: the sentence is normalized to NNF and each
``∀`` node is expanded in place, so a conjunction of many independent
∀-sentences (the shape every encoder in :mod:`repro.verify` produces)
costs the *sum* of the per-conjunct expansions rather than the product.
Existential quantifiers are only admitted outside the scope of any
universal -- exactly the Bernays-Schoenfinkel discipline; anything else
raises :class:`~repro.errors.NotInPrefixClassError`.

Relations whose content is already fixed -- a database, the logged
inputs of a run -- are passed as ``known``: a mapping from relation name
to its rows.  The grounder evaluates an atom over a known relation
against those rows instead of making it a propositional variable: a
ground atom becomes true or false, and an atom with open existential
variables keeps only the selector choices that ground it to a row.
Under the unique-name assumption over the fixed domain this is exactly
the unit propagation that the exact-content axioms of the proof of
Theorem 3.1 would force, so verdicts are unchanged; the known rows'
values join the domain, as their axioms' constants would, and the known
relations are part of the extracted model.

The resulting propositional formula goes through the Tseitin CNF
builder to the DPLL solver.  On SAT, a finite model is extracted and
(optionally) re-checked with the independent model checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.datalog.ast import Constant, Term, Variable
from repro.errors import NotInPrefixClassError, SolverError
from repro.logic.cnf import (
    CnfBuilder,
    PFalse,
    PropFormula,
    PTrue,
    PVar,
    pand,
    pnot,
    por,
)
from repro.logic.fol import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    Top,
    predicates_of,
)
from repro.logic.prenex import PrenexSentence, prenex, rectify, to_nnf
from repro.logic.sat import SatSolver
from repro.logic.structures import Structure

_FRESH_PREFIX = "@elem"


@dataclass
class GroundingStats:
    """Size statistics for a grounding, reported by the benchmarks."""

    domain_size: int = 0
    existential_count: int = 0
    universal_count: int = 0
    universal_instantiations: int = 0
    cnf_variables: int = 0
    cnf_clauses: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_conflicts: int = 0


@dataclass
class BsrResult:
    """Outcome of :func:`decide_bsr`.

    When satisfiable, ``model`` is a finite structure over the grounding
    domain and ``witnesses`` maps each existential variable (after
    rectification) to its domain element.
    """

    satisfiable: bool
    model: Structure | None = None
    witnesses: dict[Variable, object] = field(default_factory=dict)
    stats: GroundingStats = field(default_factory=GroundingStats)


def _count_quantifiers(formula: Formula) -> tuple[int, int]:
    """(existential, universal) variable counts of an NNF formula."""
    exist = universal = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Exists):
            exist += len(node.variables)
            stack.append(node.body)
        elif isinstance(node, Forall):
            universal += len(node.variables)
            stack.append(node.body)
        elif isinstance(node, (And, Or)):
            stack.extend(node.operands)
        elif isinstance(node, Not):
            stack.append(node.operand)
    return exist, universal


class _StructuralGrounder:
    """Grounds a rectified NNF sentence to a propositional formula."""

    def __init__(
        self,
        domain: tuple,
        budget: int,
        known: Mapping[str, frozenset[tuple]],
    ) -> None:
        self.domain = domain
        self.budget = budget
        self.known = known
        #: Known rows in a fixed order, so the clause order (and with it
        #: the solver's work) does not depend on set iteration order.
        self.ordered_rows = {
            name: sorted(rows, key=repr) for name, rows in known.items()
        }
        self.work = 0
        self.existentials: list[Variable] = []
        self.instantiations = 0

    def _spend(self, amount: int = 1) -> None:
        self.work += amount
        if self.work > self.budget:
            raise SolverError(
                f"grounding exceeded work budget ({self.budget}); "
                "the domain or quantifier structure is too large"
            )

    def selector(self, variable: Variable, element: object) -> PropFormula:
        return PVar(("sel", variable.name, element))

    def ground(
        self,
        formula: Formula,
        env: dict[Variable, object],
        free_existentials: set[Variable],
        under_forall: bool,
    ) -> PropFormula:
        self._spend()
        if isinstance(formula, Top):
            return PTrue()
        if isinstance(formula, Bottom):
            return PFalse()
        if isinstance(formula, Rel):
            return self._ground_rel(formula, env, free_existentials)
        if isinstance(formula, Eq):
            return self._ground_eq(formula, env, free_existentials)
        if isinstance(formula, Not):
            return pnot(
                self.ground(formula.operand, env, free_existentials, under_forall)
            )
        if isinstance(formula, And):
            return pand(
                self.ground(f, env, free_existentials, under_forall)
                for f in formula.operands
            )
        if isinstance(formula, Or):
            return por(
                self.ground(f, env, free_existentials, under_forall)
                for f in formula.operands
            )
        if isinstance(formula, Forall):
            parts = []
            count = len(formula.variables)
            for values in itertools.product(self.domain, repeat=count):
                inner = dict(env)
                inner.update(zip(formula.variables, values))
                self.instantiations += 1
                parts.append(
                    self.ground(formula.body, inner, free_existentials, True)
                )
            return pand(parts)
        if isinstance(formula, Exists):
            if under_forall:
                raise NotInPrefixClassError(
                    "existential quantifier inside a universal scope: "
                    "the sentence is outside the Bernays-Schoenfinkel class"
                )
            self.existentials.extend(formula.variables)
            extended = free_existentials | set(formula.variables)
            return self.ground(formula.body, env, extended, False)
        raise SolverError(f"unsupported node after NNF: {formula!r}")

    def _resolve(
        self,
        term: Term,
        env: dict[Variable, object],
        free_existentials: set[Variable],
    ):
        if isinstance(term, Constant):
            return term.value
        if term in env:
            return env[term]
        if term in free_existentials:
            return term
        raise SolverError(f"unbound variable {term} during grounding")

    def _ground_rel(
        self,
        atom: Rel,
        env: dict[Variable, object],
        free_existentials: set[Variable],
    ) -> PropFormula:
        resolved = [
            self._resolve(t, env, free_existentials) for t in atom.terms
        ]
        open_vars = list(
            dict.fromkeys(v for v in resolved if isinstance(v, Variable))
        )
        rows = self.known.get(atom.predicate)
        if not open_vars:
            if rows is not None:
                return PTrue() if tuple(resolved) in rows else PFalse()
            return PVar(("atom", atom.predicate, tuple(resolved)))
        if rows is not None:
            return self._ground_known(atom.predicate, resolved, open_vars)
        # Truth of the atom = some selected valuation of its existential
        # variables makes the ground atom true.  Shared selector
        # variables keep multiple occurrences of a variable consistent.
        choices = []
        for values in itertools.product(self.domain, repeat=len(open_vars)):
            self._spend()
            assignment = dict(zip(open_vars, values))
            grounded = tuple(
                assignment[v] if isinstance(v, Variable) else v
                for v in resolved
            )
            parts: list[PropFormula] = [
                self.selector(v, assignment[v]) for v in open_vars
            ]
            parts.append(PVar(("atom", atom.predicate, grounded)))
            choices.append(pand(parts))
        return por(choices)

    def _ground_known(
        self, predicate: str, resolved: list, open_vars: list[Variable]
    ) -> PropFormula:
        """An atom over a known relation: the selector choices that
        ground it to one of the relation's rows."""
        choices = []
        for row in self.ordered_rows[predicate]:
            self._spend()
            if len(row) != len(resolved):
                continue
            assignment: dict[Variable, object] = {}
            for term, value in zip(resolved, row):
                if isinstance(term, Variable):
                    if assignment.setdefault(term, value) != value:
                        break
                elif term != value:
                    break
            else:
                choices.append(
                    pand(self.selector(v, assignment[v]) for v in open_vars)
                )
        return por(choices)

    def _ground_eq(
        self,
        formula: Eq,
        env: dict[Variable, object],
        free_existentials: set[Variable],
    ) -> PropFormula:
        left = self._resolve(formula.left, env, free_existentials)
        right = self._resolve(formula.right, env, free_existentials)
        left_open = isinstance(left, Variable)
        right_open = isinstance(right, Variable)
        if not left_open and not right_open:
            return PTrue() if left == right else PFalse()
        if left_open and right_open:
            if left == right:
                return PTrue()
            return por(
                pand([self.selector(left, d), self.selector(right, d)])
                for d in self.domain
            )
        variable, element = (left, right) if left_open else (right, left)
        return self.selector(variable, element)


def decide_bsr(
    formula: Formula,
    extra_constants: tuple = (),
    minimum_domain: int = 1,
    max_work: int = 5_000_000,
    verify_model: bool = False,
    known: Mapping[str, Iterable[tuple]] | None = None,
) -> BsrResult:
    """Decide finite satisfiability of a BSR sentence.

    Parameters
    ----------
    formula:
        A sentence (no free variables).  It is normalized internally;
        an existential quantifier nested inside a universal raises
        :class:`~repro.errors.NotInPrefixClassError`.
    extra_constants:
        Additional domain elements beyond the sentence's own constants
        (e.g. the active domain of a database the sentence talks about).
    minimum_domain:
        Lower bound on the domain size (the small-model bound is
        ``max(1, k + #constants)``; a larger minimum is sound).
    max_work:
        Safety valve on grounding work (number of grounder steps).
    verify_model:
        When True, a found model is re-checked with the independent
        model checker; a discrepancy raises :class:`SolverError`.  The
        test suite turns this on; production callers usually skip the
        exponential recheck.
    known:
        Relations whose content is fixed, as a mapping from relation
        name to rows.  Their atoms are evaluated against the rows while
        grounding rather than solved for, their values join the domain,
        and the returned model interprets them as given.  Deciding
        ``φ`` with ``known=K`` is equisatisfiable with deciding ``φ``
        conjoined with exact-content axioms for ``K``, over the same
        domain, at a fraction of the grounding and SAT work.
    """
    if formula.free_variables():
        raise SolverError(
            f"not a sentence; free variables: "
            f"{sorted(v.name for v in formula.free_variables())}"
        )
    normal = rectify(to_nnf(formula))
    k, m = _count_quantifiers(normal)

    fixed = {
        name: frozenset(tuple(row) for row in rows)
        for name, rows in (known or {}).items()
    }
    known_values = {
        value for rows in fixed.values() for row in rows for value in row
    }
    constants = tuple(
        sorted(
            formula.constants() | set(extra_constants) | known_values,
            key=repr,
        )
    )
    fresh_needed = max(k, minimum_domain - len(constants), 0)
    if not constants and fresh_needed == 0:
        fresh_needed = 1  # non-empty domain required
    fresh = tuple(f"{_FRESH_PREFIX}{i}" for i in range(fresh_needed))
    domain = constants + fresh

    grounder = _StructuralGrounder(domain, max_work, fixed)
    proposition = grounder.ground(normal, {}, set(), False)

    builder = CnfBuilder()
    for variable in grounder.existentials:
        builder.add_exactly_one(
            [builder.variable(("sel", variable.name, d)) for d in domain]
        )
    builder.add_formula(proposition)

    solution = SatSolver(builder.clauses(), builder.variable_count).solve()
    stats = GroundingStats(
        domain_size=len(domain),
        existential_count=k,
        universal_count=m,
        universal_instantiations=grounder.instantiations,
        cnf_variables=builder.variable_count,
        cnf_clauses=builder.clause_count,
        sat_decisions=solution.decisions,
        sat_propagations=solution.propagations,
        sat_conflicts=solution.conflicts,
    )
    if not solution.satisfiable:
        return BsrResult(False, stats=stats)

    truths = builder.decode(solution.assignment)
    relations: dict[str, set[tuple]] = {
        pred: set() for pred in predicates_of(formula)
    }
    relations.update((name, set(rows)) for name, rows in fixed.items())
    witnesses: dict[Variable, object] = {}
    for key, true in truths.items():
        if not true:
            continue
        if key[0] == "atom":
            _, predicate, values = key
            relations.setdefault(predicate, set()).add(values)
        elif key[0] == "sel":
            _, var_name, element = key
            witnesses[Variable(var_name)] = element
    model = Structure.of(domain, relations)
    if verify_model and not model.evaluate(formula):
        raise SolverError(
            "internal error: extracted model does not satisfy the sentence"
        )
    return BsrResult(True, model, witnesses, stats)


def valid_bsr(formula: Formula, **kwargs) -> bool:
    """Check validity of a ∀*∃* sentence by refuting its negation.

    The negation of a ∀*∃* sentence is ∃*∀*, so validity of the former
    is decidable through :func:`decide_bsr`.
    """
    return not decide_bsr(Not(formula), **kwargs).satisfiable


# Re-exported for the scaling benchmarks, which inspect prefixes.
__all__ = [
    "BsrResult",
    "GroundingStats",
    "decide_bsr",
    "valid_bsr",
    "PrenexSentence",
    "prenex",
]
