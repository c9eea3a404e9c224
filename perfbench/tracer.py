"""Spans around the public calls into each layer, for the traced run only.

The tracer wraps functions from outside the program: it replaces a class
attribute or module function with a wrapper for the traced phase and puts
the original back afterwards, so timed runs execute unmodified code.  A
span is (id, name, start, end, parent id, request id); the request id is
the submit's index in the run.  Self time is a span's duration minus its
children's: calls are nested and single-threaded, so the children cover
disjoint parts of the parent.

Span names are ``<layer>.<call>``; the layer is everything before the
last dot.  Count-only wrappers record calls without timing them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def layer_of(name: str) -> str:
    return name.rpartition(".")[0]


class Tracer:
    def __init__(self, keep_requests: int) -> None:
        #: Wrappers pass straight through while paused (between rounds).
        self.paused = False
        self.request = -1
        self.keep_requests = keep_requests
        self.spans: list[tuple] = []
        self.total: "defaultdict[str, float]" = defaultdict(float)
        self.own: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.sums: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, after=None):
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def decorate(fn):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][0] if stack else None
                frame = [span_id, 0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    elapsed = end - start
                    tracer.total[name] += elapsed
                    tracer.own[name] += elapsed - frame[1]
                    tracer.calls[name] += 1
                    if stack:
                        stack[-1][1] += elapsed
                    if tracer.request < tracer.keep_requests:
                        tracer.spans.append(
                            (span_id, name, start, end, parent,
                             tracer.request)
                        )
                if after is not None:
                    after(tracer, result)
                return result

            return wrapper

        return decorate

    def counted(self, name: str):
        tracer = self

        def decorate(fn):
            def wrapper(*args, **kwargs):
                if not tracer.paused:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- patching ------------------------------------------------------------

    def patch(self, owner: type, attribute: str, decorate) -> None:
        """Wrap a method on the class that defines it."""
        for klass in owner.__mro__:
            if attribute in klass.__dict__:
                original = klass.__dict__[attribute]
                setattr(klass, attribute, decorate(original))
                self._patches.append((klass, attribute, original))
                return
        raise AttributeError(f"{owner.__name__} has no {attribute}")

    def patch_function(self, module, name: str, decorate) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapper = decorate(original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, wrapper)
                self._patches.append((loaded, name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")


def _bsr_stats(tracer: Tracer, result) -> None:
    stats = result.stats
    tracer.sums["cnf_clauses"] += stats.cnf_clauses
    tracer.sums["sat_propagations"] += stats.sat_propagations
    tracer.sums["sat_decisions"] += stats.sat_decisions


def instrument_setup(tracer: Tracer) -> None:
    """The one boundary timed during set-up: the database's FactStore."""
    from repro.core.transducer import RelationalTransducer

    tracer.patch(RelationalTransducer, "database_store",
                 tracer.timed("relalg.database_store"))


def instrument(tracer: Tracer, target) -> None:
    """Wrap every layer boundary a submit crosses in this process."""
    from repro.datalog.plan.physical import (
        CompiledRule,
        IncrementalExecutor,
        Orderer,
    )
    from repro.logic import bsr
    from repro.pods.service import PodService
    from repro.pods.session import Session
    from repro.relalg.indexes import FactStore
    from repro.relalg.instance import Instance
    from repro.server import wire
    from repro.server.client import PodClient
    from repro.verify.api.auditor import OnlineAuditor

    timed, counted = tracer.timed, tracer.counted
    tracer.patch(PodService, "submit", timed("pods.service.submit"))
    service = getattr(target, "service", None)
    if service is not None:
        store = type(service.store)
        tracer.patch(store, "record_step", timed("pods.store.record_step"))
        tracer.patch(store, "load", timed("pods.store.load"))
    tracer.patch(Session, "step", timed("core.session_step"))
    tracer.patch(IncrementalExecutor, "step",
                 timed("datalog.plan.executor_step"))
    tracer.patch(CompiledRule, "order_for", timed("datalog.plan.order_for"))
    tracer.patch(CompiledRule, "kernel_for",
                 counted("datalog.plan.kernel_for"))
    tracer.patch(Orderer, "signature", counted("datalog.plan.signature"))
    tracer.patch(Instance, "__init__", timed("relalg.instance_init"))
    tracer.patch(FactStore, "__init__", timed("relalg.factstore_init"))
    tracer.patch(OnlineAuditor, "observe_step",
                 timed("verify.api.observe_step"))
    tracer.patch_function(bsr, "decide_bsr",
                          timed("logic.decide_bsr", after=_bsr_stats))
    tracer.patch(PodClient, "submit", timed("server.submit"))
    tracer.patch_function(wire, "encode_step_request", timed("server.codec"))
    tracer.patch_function(wire, "decode_step_result", timed("server.codec"))


#: The layers each workload is chosen to stress.  The check charges the
#: self time of every span at or below one of these layers' spans to the
#: group (plan work inside an audit monitor is audit cost), and requires
#: the group to outweigh every other layer.  On ``http-wire`` the round
#: trip minus the worker's step must be most of the round trip instead.
DOMINANT = {
    "commerce-resident": ("core", "datalog.plan"),
    "tiered-audited": ("pods.store", "pods.cache", "verify.api"),
    "http-wire": ("server",),
    "bsr-audit": ("logic",),
}


def layer_self_us(tracer: Tracer, submits: int) -> dict[str, float]:
    """Per-layer self time, in microseconds per traced submit."""
    layers: "defaultdict[str, float]" = defaultdict(float)
    for name, seconds in tracer.own.items():
        layers[layer_of(name)] += seconds
    return {layer: seconds / submits * 1e6 for layer, seconds in
            sorted(layers.items())}


def group_share(spans: list[tuple], group: tuple) -> dict[str, float]:
    """Self time of the kept spans, charged to ``group`` or a layer."""
    grouped: dict[int, bool] = {}
    children: "defaultdict[int, float]" = defaultdict(float)
    for span_id, _name, start, end, parent, _request in spans:
        if parent is not None:
            children[parent] += end - start
    charged: "defaultdict[str, float]" = defaultdict(float)
    # Spans are recorded as they end, after their children; ids are
    # taken as they start, so id order visits each parent first.
    for span_id, name, start, end, parent, _request in sorted(spans):
        layer = layer_of(name)
        inside = layer in group or grouped.get(parent, False)
        grouped[span_id] = inside
        own = end - start - children[span_id]
        charged["+".join(group) if inside else layer] += own
    return dict(charged)


def per_layer_metrics(tracer: Tracer, *, submits: int,
                      worker_seconds: float, counts: dict,
                      setup_times: dict, overhead_frac: float,
                      http: bool) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``_us`` figures are microseconds per traced submit, so the layers'
    self times add up to the submit time; ``_per_step`` and
    ``_per_call`` figures are exact counts over the count prefix.
    """
    def us(name):
        return tracer.total[name] / submits * 1e6

    def own_us(name):
        return tracer.own[name] / submits * 1e6

    prefix = counts["submits"]
    calls = counts["calls"]
    evals = counts["eval"]
    sums = counts["bsr"]
    bsr_calls = calls.get("logic.decide_bsr", 0)
    rtt = us("server.submit")
    worker = worker_seconds / submits * 1e6 if http else 0.0
    stored = counts["steps_stored"]

    def per_step(value):
        return value / prefix

    def per_call(value):
        return value / bsr_calls if bsr_calls else 0.0

    return {
        "pods.service.submit_us": us("pods.service.submit"),
        "pods.service.self_us": own_us("pods.service.submit"),
        "pods.cache.rehydrate_frac": per_step(
            calls.get("pods.store.load", 0)),
        "pods.cache.evictions_per_step": per_step(evals["sessions_evicted"]),
        "pods.store.record_step_us": us("pods.store.record_step"),
        "pods.store.load_us": us("pods.store.load"),
        "pods.store.bytes_per_step": (
            counts["store_bytes"] / stored if stored else 0.0),
        "core.session_step_us": us("core.session_step"),
        "core.self_us": own_us("core.session_step"),
        "datalog.plan.executor_step_us": us("datalog.plan.executor_step"),
        "datalog.plan.order_for_us": us("datalog.plan.order_for"),
        "datalog.plan.order_for_calls_per_step": per_step(
            calls.get("datalog.plan.order_for", 0)),
        "datalog.plan.signature_calls_per_step": per_step(
            calls.get("datalog.plan.signature", 0)),
        "datalog.plan.kernel_for_calls_per_step": per_step(
            calls.get("datalog.plan.kernel_for", 0)),
        "datalog.plan.kernel_hits_per_step": per_step(evals["kernel_hits"]),
        "datalog.plan.replans_avoided_per_step": per_step(
            evals["replans_avoided"]),
        "relalg.instance_inits_per_step": per_step(
            calls.get("relalg.instance_init", 0)),
        "relalg.instance_init_us": us("relalg.instance_init"),
        "relalg.factstore_inits_per_step": per_step(
            calls.get("relalg.factstore_init", 0)),
        "relalg.database_store_s": setup_times["database_store_s"],
        "verify.api.observe_step_us": us("verify.api.observe_step"),
        "verify.api.findings_per_step": per_step(evals["audit_violations"]),
        "logic.bsr.decide_us": us("logic.decide_bsr"),
        "logic.bsr.calls_per_step": per_step(bsr_calls),
        "logic.bsr.cnf_clauses_per_call": per_call(sums["cnf_clauses"]),
        "logic.sat.propagations_per_call": per_call(
            sums["sat_propagations"]),
        "logic.sat.decisions_per_call": per_call(sums["sat_decisions"]),
        "server.rtt_us": rtt,
        "server.worker_step_us": worker,
        "server.overhead_us": rtt - worker if http else 0.0,
        "server.codec_us": us("server.codec"),
        "setup.database_s": setup_times["database_s"],
        "setup.create_sessions_s": setup_times["create_sessions_s"],
        "setup.server_start_s": setup_times["server_start_s"],
        "trace.overhead_frac": overhead_frac,
    }
