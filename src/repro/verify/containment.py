"""Log containment and equivalence of Spocus transducers.

Containment is undecidable in general (Theorem 3.4; the construction
lives in :mod:`repro.verify.undecidable`), but decidable in the
customization setting of Theorem 3.5: T₁ and T₂ share a log schema,
in₁ ⊆ in₂, and the log is full for T₁ (in₁ ⊆ log).  Then T₁ ⊒ T₂ fails
iff some *two-step* input over in₂ makes the log of T₂ differ from the
log of T₁ on the same input restricted to in₁ -- which is a BSR
sentence over two copies of in₂.

The search for a difference is decomposed per log relation and step:
each candidate difference is a separate (small) BSR query instead of
one disjunction over all of them.  The decomposition is exact -- a
difference exists iff one exists for some relation at some step -- and
keeps the small-model domain proportional to a single difference's
existentials rather than their sum.

Corollary 3.6 (same schema, full log) and log *equivalence* follow by
symmetry.  :func:`pointwise_log_equal` additionally provides the
sufficient criterion the paper uses for the short/friendly example,
where the log is partial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spocus import SpocusTransducer
from repro.errors import VerificationError
from repro.logic.bsr import GroundingStats, decide_bsr
from repro.logic.fol import Formula, Not, conjoin, disjoin
from repro.logic.fol import exists as fol_exists
from repro.relalg.instance import Instance
from repro.verify.deprecation import warn_legacy
from repro.verify.encoder import RunEncoder, decode_input_sequence


def _check_customization_shape(
    bigger: SpocusTransducer, smaller: SpocusTransducer
) -> None:
    if tuple(bigger.schema.log) != tuple(smaller.schema.log):
        raise VerificationError("transducers must share the log declaration")


def _log_relation_difference(
    name: str,
    step: int,
    encoder_one: RunEncoder,
    encoder_two: RunEncoder,
) -> Formula:
    """∃x̄: the two transducers disagree on log relation ``name`` at ``step``.

    Each transducer contributes the relation's content: the input part
    when ``name`` is among its inputs (shared replicated relations make
    the input parts literally identical formulas) and the output part
    via its own rule definitions.
    """

    def content(encoder: RunEncoder, terms) -> Formula:
        schema = encoder.transducer.schema
        parts: list[Formula] = []
        if name in schema.inputs:
            parts.append(encoder.input_atom(name, terms, step))
        if name in schema.outputs:
            parts.append(encoder.output_formula(name, terms, step))
        if not parts:
            raise VerificationError(
                f"log relation {name!r} is neither input nor output of "
                f"one transducer"
            )
        return disjoin(parts)

    schema = encoder_two.transducer.schema
    arity = (
        schema.inputs.arity(name)
        if name in schema.inputs
        else schema.outputs.arity(name)
    )
    xs = encoder_two.fresh_variables(arity, "d")
    in_two = content(encoder_two, xs)
    in_one = content(encoder_one, xs)
    return fol_exists(
        xs,
        disjoin(
            [
                conjoin([in_two, Not(in_one)]),
                conjoin([in_one, Not(in_two)]),
            ]
        ),
    )


@dataclass
class ContainmentVerdict:
    """Outcome of the containment procedures.

    ``contained`` means every valid log of the second transducer is a
    valid log of the first.  When containment fails,
    ``separating_inputs`` is a two-step input sequence whose logs
    differ, and ``difference`` names the (relation, step) where.
    """

    contained: bool
    separating_inputs: list[Instance] | None = None
    difference: tuple[str, int] | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)


def _find_pointwise_difference(
    one: SpocusTransducer,
    two: SpocusTransducer,
    database: dict | Instance | None,
) -> ContainmentVerdict:
    """Shared engine: search for a (relation, step) log difference.

    ``two`` is the transducer with the larger input schema; the
    replicated input relations are shared between both encodings.
    """
    db_instance: Instance | None = None
    if database is not None:
        db_instance = two.coerce_database(database)
    total = GroundingStats()
    for step in (1, 2):
        for name in two.schema.log:
            encoder_two = RunEncoder(two, 2)
            encoder_one = RunEncoder(one, 2)
            difference = _log_relation_difference(
                name, step, encoder_one, encoder_two
            )
            extra = encoder_two.constants(database=db_instance)
            extra |= encoder_one.constants()
            result = decide_bsr(
                difference,
                extra_constants=tuple(sorted(extra, key=repr)),
                known=encoder_two.known_database(db_instance),
            )
            _accumulate(total, result.stats)
            if result.satisfiable:
                assert result.model is not None
                witness = decode_input_sequence(two, 2, result.model)
                return ContainmentVerdict(
                    False,
                    separating_inputs=witness,
                    difference=(name, step),
                    stats=total,
                )
    return ContainmentVerdict(True, stats=total)


def _accumulate(total: GroundingStats, stats: GroundingStats) -> None:
    total.domain_size = max(total.domain_size, stats.domain_size)
    total.existential_count = max(
        total.existential_count, stats.existential_count
    )
    total.universal_count = max(total.universal_count, stats.universal_count)
    total.universal_instantiations += stats.universal_instantiations
    total.cnf_variables += stats.cnf_variables
    total.cnf_clauses += stats.cnf_clauses
    total.sat_decisions += stats.sat_decisions
    total.sat_propagations += stats.sat_propagations
    total.sat_conflicts += stats.sat_conflicts


def log_contains(
    bigger: SpocusTransducer,
    smaller: SpocusTransducer,
    database: dict | Instance | None = None,
    replay: bool = True,
) -> ContainmentVerdict:
    """Deprecated seed-era entry point; see :func:`check_log_containment`."""
    warn_legacy("log_contains", "Verifier.check_containment")
    return check_log_containment(bigger, smaller, database, replay=replay)


def check_log_containment(
    bigger: SpocusTransducer,
    smaller: SpocusTransducer,
    database: dict | Instance | None = None,
    replay: bool = True,
) -> ContainmentVerdict:
    """Decide T₁ ⊒ T₂ under the Theorem 3.5 hypotheses.

    ``bigger`` plays T₁ (the original model), ``smaller`` plays T₂ (the
    customization): in₁ ⊆ in₂ and the log must be full for T₁.  Raises
    :class:`VerificationError` when the hypotheses fail -- the general
    problem is undecidable (Theorem 3.4), so the library refuses to
    guess.
    """
    _check_customization_shape(bigger, smaller)
    in_one = set(bigger.schema.inputs.names)
    in_two = set(smaller.schema.inputs.names)
    if not in_one <= in_two:
        raise VerificationError(
            "Theorem 3.5 requires in(T1) ⊆ in(T2); "
            f"extra T1 inputs: {sorted(in_one - in_two)}"
        )
    if not in_one <= set(bigger.schema.log):
        raise VerificationError(
            "Theorem 3.5 requires the log to be full for T1 "
            "(every T1 input logged); "
            f"unlogged: {sorted(in_one - set(bigger.schema.log))}"
        )
    verdict = _find_pointwise_difference(bigger, smaller, database)
    if (
        not verdict.contained
        and replay
        and database is not None
        and verdict.separating_inputs is not None
    ):
        _replay_difference(bigger, smaller, database, verdict)
    return verdict


def _replay_difference(
    bigger: SpocusTransducer,
    smaller: SpocusTransducer,
    database: dict | Instance,
    verdict: ContainmentVerdict,
) -> None:
    db_two = smaller.coerce_database(database)
    witness = verdict.separating_inputs
    assert witness is not None
    log_two = smaller.run(db_two, witness).logs
    restricted = [
        instance.project_onto(bigger.schema.inputs) for instance in witness
    ]
    db_one = db_two.project_onto(bigger.schema.database)
    log_one = bigger.run(db_one, restricted).logs
    if list(log_one) == list(log_two):
        raise VerificationError(
            "internal error: separating witness does not separate"
        )


def are_log_equivalent(
    first: SpocusTransducer,
    second: SpocusTransducer,
    database: dict | Instance | None = None,
) -> bool:
    """Deprecated seed-era entry point; see :func:`check_log_equivalence`."""
    warn_legacy("are_log_equivalent", "Verifier.check_containment")
    return check_log_equivalence(first, second, database)


def check_log_equivalence(
    first: SpocusTransducer,
    second: SpocusTransducer,
    database: dict | Instance | None = None,
) -> bool:
    """Corollary 3.6: log equivalence over the same schema with full log."""
    return (
        check_log_containment(first, second, database).contained
        and check_log_containment(second, first, database).contained
    )


def pointwise_log_equal(
    base: SpocusTransducer,
    extension: SpocusTransducer,
    database: dict | Instance | None = None,
) -> ContainmentVerdict:
    """Deprecated entry point; see :func:`check_pointwise_log_equality`."""
    warn_legacy("pointwise_log_equal", "Verifier.check_containment")
    return check_pointwise_log_equality(base, extension, database)


def check_pointwise_log_equality(
    base: SpocusTransducer,
    extension: SpocusTransducer,
    database: dict | Instance | None = None,
) -> ContainmentVerdict:
    """Decide whether logs coincide *pointwise* on shared inputs.

    Requires in(base) ⊆ in(extension) and a shared log declaration.
    Decides (over two-step runs, which suffice as in Theorem 3.5)
    whether for every input sequence I over the extension's inputs,
    ``log_extension(I) = log_base(I|in(base))``.

    Pointwise equality is a *sufficient* condition for log-set
    equivalence without any full-log hypothesis: every extension log is
    then a base log of the restricted input, and every base input embeds
    into the extension.  This is exactly how the paper argues that
    ``short`` and ``friendly`` "yield exactly the same set of valid
    logs" although ``short``'s log is partial (``order`` is unlogged).
    """
    _check_customization_shape(base, extension)
    in_base = set(base.schema.inputs.names)
    in_ext = set(extension.schema.inputs.names)
    if not in_base <= in_ext:
        raise VerificationError(
            "pointwise comparison requires in(base) ⊆ in(extension)"
        )
    return _find_pointwise_difference(base, extension, database)
