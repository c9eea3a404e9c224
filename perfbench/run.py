"""Run one benchmark workload against the pod service; print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` times unmodified code and prints the end-to-end metrics;
``--trace 1`` wraps the layer boundaries (see ``tracer.py``) and prints
the per-layer metrics.  Every run checks the program's outputs: the
checked sessions' log digest against a fresh in-memory service, the
audit findings against the scenario's expectation, and every step
number; a traced run also checks that the layer self times cover the
submit without the wrappers distorting it, that most of a submit falls
inside an inner boundary, that the workload's dominant layer is the one
it was chosen for, and that a second process counts exactly the same
work.  Human-readable lines come first; the last line of standard
output is the JSON result.  A failed check exits 1; a checkout without
the program exits 2 without a result.  Files go to ``perfbench/out/``
and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DECLARATION = ROOT / "BENCHMARK.json"

#: Set-ups measured per untraced run (this process plus fresh ones).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

#: Service counters whose change over the count prefix is exact.
EVAL_KEYS = (
    "plans_compiled", "plan_cache_hits", "full_rule_evals",
    "delta_rule_evals", "delta_rules_skipped", "static_cache_hits",
    "kernels_compiled", "kernel_hits", "replans_avoided",
    "sessions_evicted", "sessions_rehydrated", "audit_checks",
    "audit_violations", "steps_executed",
)
BSR_KEYS = ("cnf_clauses", "sat_propagations", "sat_decisions")

#: The end-to-end timings take each submit of a round at this quantile
#: of its latencies over the rounds of a run (see ``fast_latencies``).
FAST_QUANTILE = 0.05

#: A traced run alternates wrapped and unwrapped blocks of this length.
TRACE_BLOCK_S = 1.0
#: The layer self times of a traced submit must cover the submit as the
#: harness timed it, less this share for the wrappers' own bookkeeping
#: outside the outermost span.
LAYER_SUM_TOLERANCE = 0.05
#: The layer self times may exceed an unwrapped submit from the
#: alternate blocks by at most this share (the wrappers cost 0.28 to
#: 0.45 on ``commerce-resident``, whose steps cross the most spans per
#: microsecond): beyond it the spans time the wrappers, not the program.
MAX_TRACE_OVERHEAD = 1.0
#: Share of a traced submit that may stay in no inner boundary's span:
#: the self time of ``PodService.submit`` plus that of ``Session.step``.
#: More means work has moved out of the wrapped boundaries, and the
#: per-layer figures no longer say where the time goes.
MAX_UNATTRIBUTED = 0.5


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    Each workload is a closed loop with one request in flight, so its
    processes take turns and never need two CPUs at once.  On one CPU a
    hand-off between them (client, front-end, worker) wakes a process
    on the CPU that is already running; across CPUs it waits for the
    other one, which on a shared virtual machine may be descheduled for
    milliseconds.  Unpinned, ``http-wire`` read 104 to 383 steps/s over
    five 30-second runs; pinned, alternating with them, 372 to 422.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def host_loop_ms() -> float:
    """A fixed pure-Python loop: shows when the host itself ran slow."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def percentile(ordered, fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_natural, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=("setup", "counts"), default=None,
        help="child-process modes: time one set-up, or count the "
        "traced prefix's work",
    )
    return parser.parse_args(argv)


def child(args, probe: str) -> dict:
    """Run this script as a fresh process in a probe mode."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--probe", probe,
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_snapshot(tracer, target, base: dict, submits: int) -> dict:
    """The exact work of the count prefix: must repeat in any process."""
    tracer.paused = True
    now = target.counters()
    counts = {
        "submits": submits,
        "calls": dict(sorted(tracer.calls.items())),
        "bsr": {key: tracer.sums[key] for key in BSR_KEYS},
        "eval": {key: now[key] - base[key] for key in EVAL_KEYS},
        "store_bytes": target.store_bytes(),
        "steps_stored": now["steps_executed"],
    }
    tracer.paused = False
    return counts


def traced_block(bench, tracer, seconds: float, count_at=None,
                 on_count=None) -> float:
    """Run wrapped for ``seconds``, then put the original code back."""
    from tracer import instrument

    instrument(tracer, bench.target)
    try:
        return bench.run(seconds, tracer, count_at=count_at,
                         on_count=on_count)
    finally:
        tracer.restore()


def traced_prefix(bench, tracer, seconds: float) -> "tuple[float, dict]":
    """Run traced for ``seconds``, counting the first submits exactly."""
    target = bench.target
    base = target.counters()
    counts: dict = {}
    prefix = bench.spec.count_prefix

    def on_count():
        counts.update(count_snapshot(tracer, target, base, prefix))

    spent = traced_block(bench, tracer, seconds, count_at=prefix,
                         on_count=on_count)
    return spent, counts


def interleaved(bench, tracer, seconds: float) -> dict:
    """Alternate traced and untraced blocks, ``seconds / 2`` of each.

    The first block is traced and counts the prefix exactly.  Blocks of
    about ``TRACE_BLOCK_S`` alternate afterwards, so a slow stretch of
    the host falls on both halves alike and the traced-against-untraced
    comparison measures the wrappers, not the host.
    """
    half = seconds / 2
    phases = {
        name: {"seconds": 0.0, "submits": 0, "latency": 0.0, "worker": 0.0}
        for name in ("traced", "untraced")
    }
    counts: dict = {}
    while True:
        pending = [name for name, phase in phases.items()
                   if phase["seconds"] < half]
        if not pending:
            return {"counts": counts, **phases}
        # The phase that is behind runs next; the traced one on a tie.
        name = min(pending, key=lambda name: phases[name]["seconds"])
        phase = phases[name]
        block = min(TRACE_BLOCK_S, half - phase["seconds"])
        first = len(bench.latencies)
        worker = bench.worker_seconds
        if name == "untraced":
            spent = bench.run(block)
        elif not counts:
            spent, counts = traced_prefix(bench, tracer, block)
        else:
            spent = traced_block(bench, tracer, block)
        phase["seconds"] += spent
        phase["submits"] += len(bench.latencies) - first
        phase["latency"] += sum(bench.latencies[first:])
        phase["worker"] += bench.worker_seconds - worker


def output_checks(bench) -> list[str]:
    """Log digests, audit findings, step numbers and failures."""
    from repro.scenarios import resolve_scenario

    problems = []
    bench.finish_checked_sessions()
    digest = bench.target.digest(bench.check_ids)
    reference = bench.reference_digest()
    if digest != reference:
        problems.append(
            f"log digest {digest[:16]} of the checked sessions differs "
            f"from the in-memory reference {reference[:16]}"
        )
    findings = bench.target.findings()
    if resolve_scenario(bench.spec.scenario).expects_violations:
        if findings == 0:
            problems.append("the scenario expects audit findings; none")
    elif findings:
        problems.append(f"{findings} audit findings; expected none")
    if bench.spec.audit and bench.target.counters()["audit_checks"] == 0:
        problems.append("the auditor checked nothing")
    if bench.wrong_steps:
        problems.append(f"{bench.wrong_steps} results had a wrong step")
    if bench.failed:
        problems.append(f"{bench.failed} submits failed")
    return problems


def fast_latencies(latencies, size: int) -> "tuple[list[float], int]":
    """Each submit of a round at its fastest, and the number of rounds.

    Every round sends the same requests in the same order
    (``workloads.py``), so the submit at one position of a round does
    the same work in every round, and its latencies over the rounds
    differ only as the host's speed does.  On a shared host that speed
    moves between regimes about 1.5x apart, within seconds and over
    minutes; a run's median follows how much of the run fell in a slow
    regime.  Each position's ``FAST_QUANTILE`` latency over the whole
    rounds of the run (its second fastest of 40 rounds) is the speed of
    the fastest moments the run saw, and work the program adds to a
    request slows it in every round alike.  A partial last round is
    dropped.
    """
    rounds = len(latencies) // size
    if not rounds:
        raise RuntimeError(
            f"{len(latencies)} submits do not fill one round of {size}")
    rank = max(0, round(FAST_QUANTILE * rounds) - 1)
    return [
        sorted(latencies[position:rounds * size:size])[rank]
        for position in range(size)
    ], rounds


def latency_figures(ordered, tail: float) -> dict:
    """Rate, p50 and tail of an ascending list of submit latencies."""
    return {
        "steps_per_s": len(ordered) / math.fsum(ordered),
        "submit_p50_ms": percentile(ordered, 0.5) * 1e3,
        "submit_tail_ms": percentile(ordered, tail) * 1e3,
        "samples": len(ordered),
        "tail_samples_beyond": len(ordered) - math.ceil(tail * len(ordered)),
    }


def latency_metrics(bench) -> dict:
    tail = bench.spec.tail
    fast, rounds = fast_latencies(bench.latencies, bench.round_submits)
    fast.sort()
    every = sorted(bench.latencies)
    return {
        "fast": latency_figures(fast, tail),
        "all_submits": latency_figures(every, tail),
        "tail_percentile": tail * 100,
        "round_submits": bench.round_submits,
        "rounds": rounds,
        "percentiles_ms": {
            str(q): percentile(every, q / 100) * 1e3
            for q in (50, 90, 95, 98, 99, 99.9)
        },
        "fast_percentiles_ms": {
            str(q): percentile(fast, q / 100) * 1e3
            for q in (50, 90, 95, 98, 99)
        },
    }


def run_untraced(args, bench, setup_s: float) -> tuple[dict, dict, list]:
    host_before = [host_loop_ms() for _ in range(3)]
    seconds = bench.run(args.seconds)
    host_after = [host_loop_ms() for _ in range(3)]
    rss = bench.target.rss_mb()
    latency = latency_metrics(bench)
    fast = latency["fast"]
    problems = output_checks(bench)
    bench.close()
    setups = [setup_s] + [
        child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    metrics = {
        "steps_per_s": fast["steps_per_s"],
        "submit_p50_ms": fast["submit_p50_ms"],
        "submit_tail_ms": fast["submit_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    diagnostics = {
        "failed_frac": bench.failed / bench.attempted,
        "timed_seconds": seconds,
        **latency,
        "setup_samples_s": setups,
        "setup_phases_s": bench.setup_times,
        "host_loop_ms_before": host_before,
        "host_loop_ms_after": host_after,
    }
    return metrics, diagnostics, problems


def run_traced(args, bench, setup_times: dict) -> tuple[dict, dict, list]:
    from tracer import (
        DOMINANT,
        Tracer,
        group_share,
        layer_self_us,
        per_layer_metrics,
    )

    spec = bench.spec
    http = spec.mode == "http"
    tracer = Tracer(keep_requests=spec.count_prefix)
    host_before = [host_loop_ms() for _ in range(3)]
    phases = interleaved(bench, tracer, args.seconds)
    host_after = [host_loop_ms() for _ in range(3)]
    counts = phases["counts"]
    traced, untraced = phases["traced"], phases["untraced"]
    traced_n = traced["submits"]
    traced_submit_us = traced["latency"] / traced_n * 1e6
    untraced_submit_us = untraced["latency"] / untraced["submits"] * 1e6
    traced_rate = traced_n / traced["seconds"]
    untraced_rate = untraced["submits"] / untraced["seconds"]
    problems = output_checks(bench)
    bench.close()

    layers = layer_self_us(tracer, traced_n)
    layer_sum = sum(layers.values())
    if layer_sum < (1 - LAYER_SUM_TOLERANCE) * traced_submit_us:
        problems.append(
            f"layer self times add up to {layer_sum:.1f} us per submit, "
            f"the traced submits took {traced_submit_us:.1f} us: part "
            f"of a submit lies outside every span"
        )
    if layer_sum > (1 + MAX_TRACE_OVERHEAD) * untraced_submit_us:
        problems.append(
            f"layer self times add up to {layer_sum:.1f} us per submit, "
            f"an unwrapped submit took {untraced_submit_us:.1f} us: the "
            f"wrappers distort the timing"
        )
    metrics = per_layer_metrics(
        tracer, submits=traced_n, worker_seconds=traced["worker"],
        counts=counts, setup_times=setup_times,
        overhead_frac=1.0 - traced_rate / untraced_rate, http=http,
    )
    if not http:
        unattributed = (metrics["pods.service.self_us"]
                        + metrics["core.self_us"])
        if unattributed > MAX_UNATTRIBUTED * layer_sum:
            problems.append(
                f"{unattributed:.1f} of {layer_sum:.1f} us per submit "
                f"lie in the self time of PodService.submit and "
                f"Session.step, outside every inner boundary"
            )
    dominant = DOMINANT[spec.name]
    if http:
        share = metrics["server.overhead_us"] / metrics["server.rtt_us"]
        if share <= 0.5:
            problems.append(
                f"the wire took {share:.0%} of the round trip, not most"
            )
        charged = {}
    else:
        charged = group_share(tracer.spans, dominant)
        group = charged.pop("+".join(dominant), 0.0)
        if charged and group <= max(charged.values()):
            problems.append(
                f"{'+'.join(dominant)} ({group:.3f} s) is not the "
                f"dominant layer: {charged}"
            )
        charged["+".join(dominant)] = group
    repeat = child(args, "counts")
    if repeat != counts:
        problems.append(
            f"exact work counts differ between two processes: "
            f"{counts} vs {repeat}"
        )
    spans = OUT / f"spans-{spec.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    diagnostics = {
        "failed_frac": bench.failed / bench.attempted,
        "layer_self_us": layers,
        "dominance_s": charged,
        "traced_submit_us": traced_submit_us,
        "untraced_submit_us": untraced_submit_us,
        "traced_steps_per_s": traced_rate,
        "untraced_steps_per_s": untraced_rate,
        "exact_counts": counts,
        "counts_repeat": repeat == counts,
        "spans_file": str(spans.relative_to(ROOT)),
        "host_loop_ms_before": host_before,
        "host_loop_ms_after": host_after,
    }
    return metrics, diagnostics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SPECS, Bench

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        setup_tracer = None
        if args.trace:
            from tracer import Tracer, instrument_setup

            setup_tracer = Tracer(keep_requests=0)
            instrument_setup(setup_tracer)
        bench = Bench(spec, args.seed, scratch, ROOT)
        setup_s = time.perf_counter() - started
        setup_times = dict(bench.setup_times)
        if setup_tracer is not None:
            setup_tracer.restore()
            setup_times["database_store_s"] = setup_tracer.total[
                "relalg.database_store"]
        if args.probe == "setup":
            bench.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.probe == "counts":
            from tracer import Tracer

            try:
                _spent, counts = traced_prefix(
                    bench, Tracer(keep_requests=0), 0.0)
            finally:
                bench.close()
            print(json.dumps(counts))
            return 0
        try:
            if args.trace:
                metrics, diagnostics, problems = run_traced(
                    args, bench, setup_times)
            else:
                metrics, diagnostics, problems = run_untraced(
                    args, bench, setup_s)
        finally:
            bench.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        raise RuntimeError(
            f"{DECLARATION.name} declares {sorted(units)}, the run "
            f"measured {sorted(metrics)}"
        )
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    record = dict(result, workload=spec.name, seed=args.seed,
                  trace=args.trace, problems=problems,
                  diagnostics=diagnostics)
    with open(OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(f"{spec.name} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:14.6g} {unit}")
    print(f"  {'failed_frac':42s} {diagnostics['failed_frac']:14.6g} ratio")
    print(f"  host loop ms before {diagnostics['host_loop_ms_before']} "
          f"after {diagnostics['host_loop_ms_after']}")
    if not args.trace:
        every = diagnostics["all_submits"]
        print(f"  {diagnostics['rounds']} rounds of "
              f"{diagnostics['round_submits']} submits; over all "
              f"{every['samples']} submits: {every['steps_per_s']:.6g} "
              f"steps/s, p50 {every['submit_p50_ms']:.6g} ms, tail "
              f"{every['submit_tail_ms']:.6g} ms")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
