"""Fraud detection: validating customer-submitted logs (Section 2.1).

The scenario the paper motivates log validity with: a supplier lets a
customer run the supplier's business model locally and only receives
the (partial) log of the session.  Before honoring the session, the
supplier validates the log -- a forged log claiming an unpaid delivery
must be rejected.

Run with:  python examples/fraud_detection.py
"""

from repro.commerce import CatalogGenerator, random_log
from repro.commerce.models import build_short
from repro.commerce.workloads import tamper_log
from repro.core.run import format_log
from repro.verify.api import LogValidity, Verifier


def main() -> None:
    short = build_short()
    catalog = CatalogGenerator(seed=20).generate(6)
    verifier = Verifier(short, catalog.as_database())

    # An honest customer session, executed at the customer's site.
    run, logs = random_log(short, catalog, length=8, seed=5)
    print("customer-submitted log:")
    print(format_log(logs))
    result = verifier.check(LogValidity(log=logs))
    print(f"\nsupplier verdict: {'ACCEPT' if result.holds else 'REJECT'}")
    assert result.holds

    # The decision procedure even reconstructs a witness session.
    print("\nreconstructed generating inputs (first two steps):")
    for step, facts in enumerate(result.trace.inputs[:2], start=1):
        print(f"  step {step}: {facts}")

    # A fraudulent log: a delivery injected for a product never paid.
    forged = tamper_log(logs, catalog, seed=99)
    verdict = verifier.check(LogValidity(log=forged))
    print(f"\nforged log verdict: {'ACCEPT' if verdict.holds else 'REJECT'}")
    print(f"  {verdict.counterexample.violation}")
    assert not verdict.holds

    # Because `short`'s log is partial (orders are unlogged), validation
    # is a real decision problem: the supplier must *search* for inputs
    # explaining the log, which is what the BSR reduction does.
    print(
        f"\ngrounding solved: {verdict.stats.cnf_clauses} clauses over "
        f"{verdict.stats.cnf_variables} variables, "
        f"domain size {verdict.stats.domain_size}"
    )


if __name__ == "__main__":
    main()
