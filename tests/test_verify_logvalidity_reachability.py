"""Tests for Theorem 3.1 (log validity) and 3.2 (goal reachability)."""

import pytest

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import build_friendly, build_short
from repro.commerce.workloads import SessionGenerator, tamper_log
from repro.datalog.ast import Variable as V
from repro.logic.bsr import decide_bsr
from repro.logic.fol import conjoin
from repro.relalg.instance import Instance
from repro.scenarios import get_scenario
from repro.verify import Goal, is_goal_reachable, is_valid_log
from repro.verify.encoder import RunEncoder
from repro.verify.logvalidity import check_log_validity


def log_entry(transducer, **facts):
    return Instance(transducer.schema.log_schema, facts)


class TestLogValidity:
    def test_real_run_log_is_valid(self, short, catalog_db, figure1_inputs):
        run = short.run(catalog_db, figure1_inputs)
        result = is_valid_log(short, catalog_db, run.logs)
        assert result.valid
        assert result.witness_inputs is not None

    def test_witness_regenerates_log(self, short, catalog_db, figure1_inputs):
        run = short.run(catalog_db, figure1_inputs)
        result = is_valid_log(short, catalog_db, run.logs)
        replay = short.run(catalog_db, result.witness_inputs)
        assert list(replay.logs) == list(run.logs)

    def test_forged_delivery_rejected(self, short, catalog_db):
        forged = [log_entry(short, deliver={("time",)})]
        assert not is_valid_log(short, catalog_db, forged).valid

    def test_delivery_without_logged_payment_rejected(self, short, catalog_db):
        # deliver requires pay in the same step, and pay is logged: a
        # log showing deliver with an empty pay cannot be generated.
        forged = [
            log_entry(short, sendbill={("time", 55)}),
            log_entry(short, deliver={("time",)}),
        ]
        assert not is_valid_log(short, catalog_db, forged).valid

    def test_payment_then_delivery_valid(self, short, catalog_db):
        entries = [
            log_entry(short, sendbill={("time", 55)}),
            log_entry(short, pay={("time", 55)}, deliver={("time",)}),
        ]
        result = is_valid_log(short, catalog_db, entries)
        assert result.valid

    def test_wrong_price_bill_rejected(self, short, catalog_db):
        forged = [log_entry(short, sendbill={("time", 99)})]
        assert not is_valid_log(short, catalog_db, forged).valid

    def test_empty_log_trivially_valid(self, short, catalog_db):
        assert is_valid_log(short, catalog_db, []).valid

    def test_all_empty_steps_valid(self, short, catalog_db):
        entries = [log_entry(short), log_entry(short)]
        assert is_valid_log(short, catalog_db, entries).valid

    def test_unknown_database_mode(self, short):
        # With the database existentially quantified, a bill for any
        # price is realizable by *some* catalog.
        entries = [log_entry(short, sendbill={("widget", 123)})]
        result = is_valid_log(short, None, entries)
        assert result.valid
        assert result.witness_database is not None
        assert ("widget", 123) in result.witness_database["price"]

    def test_unknown_database_still_rejects_contradictions(self, short):
        # deliver logged while pay (also logged) is empty is impossible
        # under any database.
        entries = [log_entry(short, deliver={("x",)})]
        assert not is_valid_log(short, None, entries).valid

    def test_friendly_session_log_valid(
        self, friendly, catalog_db, figure2_inputs
    ):
        run = friendly.run(catalog_db, figure2_inputs)
        assert is_valid_log(friendly, catalog_db, run.logs).valid

    def test_dict_log_entries_accepted(self, short, catalog_db):
        entries = [{"sendbill": {("time", 55)}, "pay": set(), "deliver": set()}]
        assert is_valid_log(short, catalog_db, entries).valid


def asserted_log_validity(transducer, database, entries):
    """Theorem 3.1 as the paper encodes it: the database and every
    logged relation pinned by exact-content axioms, nothing folded."""
    encoder = RunEncoder(transducer, len(entries))
    schema = transducer.schema
    conjuncts = [encoder.log_axioms(entries)]
    conjuncts.extend(
        encoder.input_content_axiom(name, index + 1, entry[name])
        for index, entry in enumerate(entries)
        for name in schema.log
        if name in schema.inputs
    )
    db = None
    if database is not None:
        db = transducer.coerce_database(database)
        conjuncts.append(encoder.database_axioms(db))
    extra = encoder.constants(database=db, log=entries)
    return decide_bsr(
        conjoin(conjuncts), extra_constants=tuple(sorted(extra, key=repr))
    )


def shopping_logs(transducer, sessions, length):
    """Honest logs of generated sessions, each with a forged twin."""
    for seed in range(sessions):
        catalog = CatalogGenerator(seed=seed).generate(3)
        database = catalog.as_database()
        script = SessionGenerator(
            catalog, seed=seed, error_rate=0.3
        ).session(1 + seed % length)
        logs = list(transducer.run(database, script).logs)
        yield database, logs, True
        yield database, list(tamper_log(logs, catalog, seed=seed)), None


class TestFoldedLogValidity:
    """Folding the database and logged inputs into grounding decides
    the same logs as asserting them with exact-content axioms."""

    @pytest.mark.parametrize("build", [build_short, build_friendly])
    def test_verdicts_match_exact_content_axioms(self, build):
        transducer = build()
        verdicts = []
        for database, logs, honest in shopping_logs(transducer, 20, 5):
            for db in (database, None):
                folded = check_log_validity(transducer, db, logs, replay=True)
                asserted = asserted_log_validity(transducer, db, logs)
                assert folded.valid == asserted.satisfiable
                assert folded.stats.domain_size == asserted.stats.domain_size
                if honest:
                    assert folded.valid
                verdicts.append(folded.valid)
        assert True in verdicts and False in verdicts

    def test_fraud_detection_check_grounds_fewer_clauses(self):
        scenario = get_scenario("fraud-detection")
        transducer = scenario.build_transducer()
        database = scenario.database(seed=1)
        script = scenario.session_script(
            0, seed=1, scale=scenario.default_scale, length=4
        )
        logs = list(transducer.run(database, script).logs)
        folded = check_log_validity(transducer, database, logs)
        asserted = asserted_log_validity(transducer, database, logs)
        assert folded.valid and asserted.satisfiable
        assert folded.stats.cnf_clauses < asserted.stats.cnf_clauses


class TestGoalReachability:
    def test_deliver_reachable_when_priced(self, short, catalog_db):
        goal = Goal.atoms(deliver=("time",))
        result = is_goal_reachable(short, catalog_db, goal)
        assert result.reachable
        assert result.witness_inputs is not None

    def test_deliver_unreachable_without_price(self, short, catalog_db):
        goal = Goal.atoms(deliver=("vogue",))
        assert not is_goal_reachable(short, catalog_db, goal).reachable

    def test_existential_goal(self, short, catalog_db):
        x = V("x")
        goal = Goal(positive=((("deliver"), (x,)),))
        assert is_goal_reachable(short, catalog_db, goal).reachable

    def test_negative_literal_goal(self, short, catalog_db):
        # Reach a state where time is billed but not delivered.
        goal = Goal(
            positive=(("sendbill", (V("x"), V("y"))),),
            negative=(("deliver", (V("x"),)),),
        )
        assert is_goal_reachable(short, catalog_db, goal).reachable

    def test_contradictory_goal_unreachable(self, short, catalog_db):
        goal = Goal(
            positive=(("deliver", (V("x"),)),),
            negative=(("deliver", (V("x"),)),),
        )
        assert not is_goal_reachable(short, catalog_db, goal).reachable

    def test_witness_replay(self, short, catalog_db):
        goal = Goal.atoms(deliver=("le_monde",))
        result = is_goal_reachable(short, catalog_db, goal)
        assert result.reachable
        run = short.run(catalog_db, result.witness_inputs)
        assert ("le_monde",) in run.last_output["deliver"]

    def test_progress_after_prefix(self, short, catalog_db):
        # After ordering, delivery is still reachable.
        prefix = [{"order": {("time",)}}]
        goal = Goal.atoms(deliver=("time",))
        assert is_goal_reachable(short, catalog_db, goal, prefix).reachable

    def test_goal_with_two_step_dependency(self, short, catalog_db):
        # deliver requires a *prior* order: a fresh one-step run cannot
        # deliver, which is why the witness needs two steps.
        goal = Goal.atoms(deliver=("time",))
        result = is_goal_reachable(short, catalog_db, goal)
        run = short.run(catalog_db, result.witness_inputs)
        assert len(run) == 2
        assert not run.outputs[0]["deliver"]

    def test_unavailable_warning_reachable(self, friendly, catalog_db):
        goal = Goal.atoms(unavailable=("vogue",))
        assert is_goal_reachable(friendly, catalog_db, goal).reachable

    def test_rebill_reachable(self, friendly, catalog_db):
        goal = Goal.atoms(rebill=("time", 55))
        assert is_goal_reachable(friendly, catalog_db, goal).reachable
