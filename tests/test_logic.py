"""Tests for the logic substrate: FOL, prenex, SAT, BSR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Constant as C
from repro.datalog.ast import Variable as V
from repro.errors import NotInPrefixClassError, SolverError
from repro.logic import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Rel,
    Structure,
    classify_prefix,
    conjoin,
    decide_bsr,
    disjoin,
    prenex,
    to_nnf,
)
from repro.logic.bsr import valid_bsr
from repro.logic.fol import BOTTOM, TOP, exists, forall
from repro.logic.sat import SatSolver, solve_clauses, verify_assignment

x, y, z = V("x"), V("y"), V("z")


class TestFol:
    def test_conjoin_flattens(self):
        f = conjoin([Rel("p"), conjoin([Rel("q"), Rel("r")])])
        assert isinstance(f, And) and len(f.operands) == 3

    def test_conjoin_units(self):
        assert conjoin([]) == TOP
        assert conjoin([Rel("p")]) == Rel("p")
        assert conjoin([BOTTOM, Rel("p")]) == BOTTOM

    def test_disjoin_units(self):
        assert disjoin([]) == BOTTOM
        assert disjoin([TOP, Rel("p")]) == TOP

    def test_free_variables(self):
        f = Exists((x,), conjoin([Rel("p", (x, y))]))
        assert f.free_variables() == {y}

    def test_substitute_respects_binding(self):
        f = Exists((x,), Rel("p", (x, y)))
        g = f.substitute({y: C("a"), x: C("b")})
        assert g == Exists((x,), Rel("p", (x, C("a"))))

    def test_constants_collected(self):
        f = conjoin([Rel("p", (C("a"),)), Eq(C(1), y)])
        assert f.constants() == {"a", 1}

    def test_exists_drops_vacuous(self):
        assert exists([x], Rel("p")) == Rel("p")
        assert forall([x], Rel("p", (x,))) == Forall((x,), Rel("p", (x,)))


class TestPrenex:
    def test_nnf_pushes_negation(self):
        f = Not(conjoin([Rel("p"), Rel("q")]))
        nnf = to_nnf(f)
        assert isinstance(nnf, Or)

    def test_nnf_flips_quantifiers(self):
        f = Not(Forall((x,), Rel("p", (x,))))
        nnf = to_nnf(f)
        assert isinstance(nnf, Exists)

    def test_implication_eliminated(self):
        f = Implies(Rel("p"), Rel("q"))
        assert isinstance(to_nnf(f), Or)

    def test_prefix_classification(self):
        f = Exists((x,), Forall((y,), Rel("p", (x, y))))
        assert classify_prefix(prenex(f)) == "exists*forall*"

    def test_conjunction_of_exists_and_forall_is_bsr(self):
        f = conjoin(
            [
                Exists((x,), Rel("p", (x,))),
                Forall((y,), Rel("q", (y,))),
                Exists((z,), Rel("r", (z,))),
            ]
        )
        assert classify_prefix(prenex(f)) == "exists*forall*"

    def test_forall_exists_is_other(self):
        f = Forall((x,), Exists((y,), Rel("p", (x, y))))
        assert classify_prefix(prenex(f)) == "other"

    def test_rectify_renames_apart(self):
        f = conjoin(
            [Exists((x,), Rel("p", (x,))), Exists((x,), Rel("q", (x,)))]
        )
        sentence = prenex(f)
        names = [v.name for _, v in sentence.prefix]
        assert len(names) == len(set(names)) == 2


class TestSat:
    def test_trivial_sat(self):
        assert solve_clauses([[1]]).satisfiable

    def test_trivial_unsat(self):
        assert not solve_clauses([[1], [-1]]).satisfiable

    def test_empty_clause_unsat(self):
        assert not solve_clauses([[]]).satisfiable

    def test_no_clauses_sat(self):
        assert solve_clauses([]).satisfiable

    def test_unit_propagation_chain(self):
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        solution = solve_clauses(clauses)
        assert solution.satisfiable
        assert all(solution.assignment[v] for v in (1, 2, 3, 4))

    def test_propagation_conflict(self):
        assert not solve_clauses([[1], [-1, 2], [-2]]).satisfiable

    def test_tautology_removed(self):
        assert solve_clauses([[1, -1], [2]]).satisfiable

    def test_pigeonhole_3_into_2_unsat(self):
        # Pigeon i in hole j: var 2i + j + 1 for i in 0..2, j in 0..1.
        def var(i, j):
            return 2 * i + j + 1

        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        assert not solve_clauses(clauses).satisfiable

    def test_model_verifies(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solution = solve_clauses(clauses)
        assert solution.satisfiable
        assert verify_assignment(clauses, solution.assignment)

    def test_random_3sat_consistency(self):
        import random

        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(3, 8)
            clauses = [
                [
                    rng.choice([-1, 1]) * rng.randint(1, n)
                    for _ in range(3)
                ]
                for _ in range(rng.randint(2, 20))
            ]
            solution = SatSolver(clauses, n).solve()
            if solution.satisfiable:
                assert verify_assignment(clauses, solution.assignment)
            else:
                # Brute-force cross-check for small n.
                ok = False
                for mask in range(2**n):
                    assignment = {
                        v: bool(mask >> (v - 1) & 1) for v in range(1, n + 1)
                    }
                    if verify_assignment(clauses, assignment):
                        ok = True
                        break
                assert not ok, f"solver said UNSAT but {clauses} is SAT"


class TestStructures:
    def test_atom_evaluation(self):
        s = Structure.of({"a", "b"}, {"p": {("a",)}})
        assert s.evaluate(Rel("p", (C("a"),)))
        assert not s.evaluate(Rel("p", (C("b"),)))

    def test_quantifiers(self):
        s = Structure.of({"a", "b"}, {"p": {("a",), ("b",)}})
        assert s.evaluate(Forall((x,), Rel("p", (x,))))
        assert s.evaluate(Exists((x,), Rel("p", (x,))))

    def test_equality_una(self):
        s = Structure.of({"a", "b"})
        assert s.evaluate(Eq(C("a"), C("a")))
        assert not s.evaluate(Eq(C("a"), C("b")))

    def test_constant_outside_domain_raises(self):
        s = Structure.of({"a"})
        with pytest.raises(SolverError):
            s.evaluate(Rel("p", (C("zz"),)))

    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(SolverError):
            Structure.of({"a"}, {"p": {("b",)}})


class TestBsr:
    def test_simple_sat_with_model(self):
        f = Exists((x,), Rel("p", (x,)))
        result = decide_bsr(f, verify_model=True)
        assert result.satisfiable
        assert result.model is not None
        assert result.model.evaluate(f)

    def test_simple_unsat(self):
        f = conjoin(
            [Exists((x,), Rel("p", (x,))), Forall((y,), Not(Rel("p", (y,))))]
        )
        assert not decide_bsr(f).satisfiable

    def test_una_distinct_constants(self):
        f = conjoin(
            [
                Rel("p", (C("a"),)),
                Rel("p", (C("b"),)),
                Forall(
                    (x,),
                    Implies(Rel("p", (x,)), Eq(x, C("a"))),
                ),
            ]
        )
        assert not decide_bsr(f).satisfiable

    def test_witness_extraction(self):
        f = Exists((x,), conjoin([Rel("p", (x,)), Not(Eq(x, C("a")))]))
        result = decide_bsr(f, verify_model=True)
        assert result.satisfiable
        witness = next(iter(result.witnesses.values()))
        assert witness != "a"

    def test_equality_between_existentials(self):
        f = Exists(
            (x, y),
            conjoin([Rel("p", (x,)), Rel("q", (y,)), Eq(x, y)]),
        )
        result = decide_bsr(f, verify_model=True)
        assert result.satisfiable

    def test_exists_inside_forall_rejected(self):
        f = Forall((x,), Exists((y,), Rel("p", (x, y))))
        with pytest.raises(NotInPrefixClassError):
            decide_bsr(f)

    def test_free_variables_rejected(self):
        with pytest.raises(SolverError):
            decide_bsr(Rel("p", (x,)))

    def test_extra_constants_enlarge_domain(self):
        f = Exists((x,), Not(Eq(x, C("a"))))
        result = decide_bsr(f, extra_constants=("b",))
        assert result.satisfiable

    def test_validity_check(self):
        tautology = Forall((x,), Or((Rel("p", (x,)), Not(Rel("p", (x,))))))
        assert valid_bsr(tautology)
        contingent = Forall((x,), Rel("p", (x,)))
        assert not valid_bsr(contingent)

    def test_work_budget_enforced(self):
        vars_ = tuple(V(f"u{i}") for i in range(8))
        f = conjoin(
            [Rel("p", (C(i),)) for i in range(10)]
            + [Forall(vars_, Rel("q", vars_))]
        )
        with pytest.raises(SolverError):
            decide_bsr(f, max_work=1000)

    def test_model_checker_cross_validation(self):
        # Randomized: any SAT result's model must satisfy the sentence.
        f = conjoin(
            [
                Exists((x,), conjoin([Rel("p", (x,)), Rel("q", (x,))])),
                Forall(
                    (y,),
                    Implies(Rel("q", (y,)), Or((Rel("p", (y,)), Eq(y, C("a"))))),
                ),
            ]
        )
        decide_bsr(f, verify_model=True)  # raises on mismatch


# -- folding known relations -------------------------------------------------------

_ARITY = {"p": 1, "q": 2, "r": 1}
_CONSTANTS = ("a", "b", "c")
#: Known rows draw on one value no sentence mentions, so folding must
#: add the known relations' values to the domain as their axioms would.
_ROW_VALUES = _CONSTANTS + ("d",)


@st.composite
def _bsr_sentences(draw):
    """∃x̄ ∀ȳ φ over p/1, q/2, r/1 with a random quantifier-free φ."""
    exist = tuple(V(f"e{i}") for i in range(draw(st.integers(0, 2))))
    universal = tuple(V(f"u{i}") for i in range(draw(st.integers(0, 2))))
    # Half variables, half constants, so atoms often repeat a variable.
    terms = st.sampled_from([C(value) for value in _CONSTANTS])
    if exist + universal:
        terms = st.sampled_from(exist + universal) | terms
    atoms = st.one_of(
        st.builds(
            lambda name, args: Rel(name, tuple(args[: _ARITY[name]])),
            st.sampled_from(sorted(_ARITY)),
            st.lists(terms, min_size=2, max_size=2),
        ),
        st.builds(Eq, terms, terms),
    )
    matrix = draw(
        st.recursive(
            atoms,
            lambda sub: st.one_of(
                st.builds(Not, sub),
                st.builds(conjoin, st.lists(sub, min_size=1, max_size=3)),
                st.builds(disjoin, st.lists(sub, min_size=1, max_size=3)),
            ),
            max_leaves=6,
        )
    )
    return exists(exist, forall(universal, matrix))


@st.composite
def _known_instances(draw):
    """Fixed content for a random subset of the relations."""
    names = draw(st.sets(st.sampled_from(sorted(_ARITY))))
    return {
        name: draw(
            st.frozensets(
                st.tuples(*[st.sampled_from(_ROW_VALUES)] * _ARITY[name]),
                max_size=4,
            )
        )
        for name in sorted(names)
    }


def _exact_content_axioms(known):
    """Theorem 3.1's axioms: every row is in R, and R holds nothing else."""
    conjuncts = []
    for name, rows in known.items():
        xs = tuple(V(f"k{i}") for i in range(_ARITY[name]))
        conjuncts.extend(
            Rel(name, tuple(C(value) for value in row))
            for row in sorted(rows)
        )
        cases = disjoin(
            conjoin(Eq(var, C(value)) for var, value in zip(xs, row))
            for row in sorted(rows)
        )
        conjuncts.append(forall(xs, Implies(Rel(name, xs), cases)))
    return conjoin(conjuncts)


class TestKnownRelations:
    @given(_bsr_sentences(), _known_instances())
    @settings(max_examples=150, deadline=None)
    def test_folding_matches_exact_content_axioms(self, sentence, known):
        asserted = decide_bsr(
            conjoin([sentence, _exact_content_axioms(known)]),
            verify_model=True,
        )
        folded = decide_bsr(sentence, verify_model=True, known=known)
        assert folded.satisfiable == asserted.satisfiable
        assert folded.stats.domain_size == asserted.stats.domain_size
        if folded.satisfiable:
            for name, rows in known.items():
                assert folded.model.tuples(name) == rows

    def test_ground_atoms_fold_to_constants(self):
        known = {"p": {("a",)}}
        result = decide_bsr(Rel("p", (C("a"),)), known=known)
        assert result.satisfiable
        assert result.model.tuples("p") == {("a",)}
        assert result.stats.cnf_variables == 0
        assert not decide_bsr(Rel("p", (C("b"),)), known=known).satisfiable

    def test_open_atom_keeps_matching_rows(self):
        f = Exists((x,), conjoin([Rel("q", (x, x)), Not(Eq(x, C("a")))]))
        known = {"q": {("a", "a"), ("b", "c"), ("c", "c")}}
        result = decide_bsr(f, verify_model=True, known=known)
        assert result.satisfiable
        assert set(result.witnesses.values()) == {"c"}
        assert not decide_bsr(
            f, known={"q": {("a", "a"), ("b", "c")}}
        ).satisfiable
