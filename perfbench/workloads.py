"""The four benchmark workloads and the closed loop that runs them.

Every workload is a closed loop: one caller thread, one request in
flight, single ``submit`` calls in ``open_loop_events`` order.  Traffic
comes in *rounds*, each a fixed set of fresh sessions, so that memory
stays bounded however long a run lasts:

* the sessions of a round are created before its first request;
* its requests then run in open-loop arrival order;
* when the round is done its sessions are closed (except the first
  ``check_sessions`` of round 0, whose logs are digested at the end).

Every round replays the same scripts in the same order under fresh
session ids (suffix ``-r<round>``), so every round does the same work
and ``run.py`` can compare rounds by their wall time alone.  The seed
picks the scripts and their order; the session lengths of a round are
the scenario's own lengths for slots ``0 .. sessions - 1`` and do not
depend on the seed, so seeds differ in content, not in how much work a
round holds.

Only the submits are timed.  Creating and closing a round's sessions and
generating the next round's inputs happen with the clock paused; the
creation of round 0 is part of set-up.  Everything is a pure function of
the seed, so two runs with one seed send identical requests.

The ``why`` of each workload and the layer predictions it carries are
in ``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.pods import InMemoryStore, PodService, SqliteStore
from repro.scenarios import (
    Workload,
    log_digest,
    make_auditor,
    open_loop_events,
    resolve_scenario,
)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scenario: str
    #: Scenario scale (``None``: the scenario's default).
    scale: "int | None"
    mean_steps: int
    #: Open-loop session arrivals per virtual second; with a think time
    #: of 1 s, about ``arrival_rate * mean_steps`` sessions are active.
    arrival_rate: float
    #: ``memory`` / ``sqlite``: an in-process PodService over that
    #: store; ``http``: a ``python -m repro.server`` subprocess.
    mode: str
    audit: bool
    max_resident: "int | None"
    #: Sessions per round.
    sessions: int
    warmup_sessions: int
    #: Leading sessions of round 0 whose log digest is checked.
    check_sessions: int
    #: Submits at the start of the traced phase whose work is counted
    #: exactly (and must repeat exactly in a second process).
    count_prefix: int
    #: Percentile reported as ``submit_tail_ms``: p90 everywhere.  It
    #: leaves at least ten of a round's submits beyond it (``bsr-audit``
    #: has the fewest, 118); on the high-rate workloads p99 is set by
    #: stalls of the host rather than of the program.
    tail: float


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "commerce-resident", "commerce", 1000, 8, 4.0, "memory",
            audit=False, max_resident=None, sessions=128,
            warmup_sessions=32, check_sessions=32, count_prefix=2000,
            tail=0.90,
        ),
        WorkloadSpec(
            "tiered-audited", "commerce", 1000, 8, 64.0, "sqlite",
            audit=True, max_resident=16, sessions=128,
            warmup_sessions=32, check_sessions=32, count_prefix=2000,
            tail=0.90,
        ),
        WorkloadSpec(
            "http-wire", "commerce", 1000, 8, 4.0, "http",
            audit=False, max_resident=None, sessions=16,
            warmup_sessions=16, check_sessions=16, count_prefix=400,
            tail=0.90,
        ),
        WorkloadSpec(
            "bsr-audit", "fraud-detection", None, 2, 4.0, "memory",
            audit=True, max_resident=None, sessions=48,
            warmup_sessions=4, check_sessions=8, count_prefix=40,
            tail=0.90,
        ),
    )
}

#: The database is part of the benchmark and never changes; ``--seed``
#: picks the traffic.  Run seed ``s`` draws its scripts from scenario
#: indices ``s * SEED_STRIDE`` onwards, warm-up ones from the top of
#: that range.
DATABASE_SEED = 0
SEED_STRIDE = 1_000_000
WARMUP_OFFSET = 999_000


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Round:
    """One round's sessions and its requests in arrival order.

    ``count`` sessions with the scripts of scenario indices ``first``
    on, and ids suffixed with ``tag``.
    """

    def __init__(self, spec: WorkloadSpec, seed: int, *, first: int,
                 count: int, tag: str):
        scenario = resolve_scenario(spec.scenario)
        scale = scenario.scale_of(spec.scale)
        ids, scripts = [], {}
        for index in range(first, first + count):
            session_id = scenario.session_id(index) + tag
            length = scenario.session_length(
                index - first, seed=DATABASE_SEED, mean_steps=spec.mean_steps
            )
            ids.append(session_id)
            scripts[session_id] = scenario.session_script(
                index, seed=DATABASE_SEED, scale=scale, length=length
            )
        workload = Workload(scenario.name, tuple(ids), scripts)
        events = open_loop_events(
            workload,
            seed=seed,
            arrival_rate=spec.arrival_rate,
            think_time=1.0,
        )
        self.sessions = workload.sessions
        self.scripts = scripts
        self.requests = [request for _at, request in events]
        # The step number each result must report, request by request.
        done: dict[str, int] = {}
        self.expected = []
        for request in self.requests:
            done[request.session] = done.get(request.session, 0) + 1
            self.expected.append(done[request.session])


class InProcessTarget:
    """A PodService in this process, over an in-memory or SQLite store."""

    server_start_s = 0.0

    def __init__(self, spec: WorkloadSpec, scratch: Path):
        scenario = resolve_scenario(spec.scenario)
        self.store_path = None
        if spec.mode == "sqlite":
            self.store_path = scratch / "pods.sqlite"
            store = SqliteStore(self.store_path, durability="step")
        else:
            store = InMemoryStore()
        self.service = PodService(
            scenario.build_transducer(),
            scenario.database(seed=DATABASE_SEED, scale=spec.scale),
            store=store,
            keep_logs=True,
            auditor=make_auditor(scenario) if spec.audit else None,
            max_resident_sessions=spec.max_resident,
        )
        self.api = self.service

    def counters(self) -> dict:
        return self.service.metrics.snapshot()

    def findings(self) -> int:
        return len(self.service.audit_findings())

    def store_bytes(self) -> int:
        if self.store_path is None:
            return 0
        self.service.flush()
        return sum(
            _tree_bytes(path)
            for path in self.store_path.parent.glob(self.store_path.name + "*")
        )

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def digest(self, session_ids) -> str:
        return log_digest(self.service, session_ids)

    def close(self) -> None:
        self.service.close()


class HttpTarget:
    """``python -m repro.server`` in a subprocess, reached by PodClient."""

    def __init__(self, spec: WorkloadSpec, scratch: Path, root: Path):
        from repro.server.client import PodClient

        self.store_dir = scratch / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        command = [
            sys.executable, "-m", "repro.server",
            "--scenario", spec.scenario,
            "--workers", "1",
            "--db-seed", str(DATABASE_SEED),
            "--store", str(self.store_dir),
        ]
        if spec.scale is not None:
            command += ["--scale", str(spec.scale)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        self.worker_pid = None
        try:
            line = self.process.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"pod server failed to start: {line!r}")
            self.server_start_s = time.perf_counter() - started
            scenario = resolve_scenario(spec.scenario)
            self.client = PodClient(
                line.split()[-1], scenario.build_transducer()
            )
            self.worker_pid = self.client.healthz()["workers"][0]["pid"]
        except BaseException:
            self.close()
            raise
        self.api = self.client

    def counters(self) -> dict:
        return self.client.metrics.snapshot()

    def findings(self) -> int:
        return len(self.client.audit_findings())

    def store_bytes(self) -> int:
        return _tree_bytes(self.store_dir)

    def rss_mb(self) -> float:
        return peak_rss_mb(self.worker_pid)

    def digest(self, session_ids) -> str:
        return log_digest(self.client, session_ids)

    def close(self) -> None:
        """Stop the server (it drains its worker) and wait for both."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            # A server that cannot drain leaves its worker behind.
            process.kill()
            process.communicate()
            if self.worker_pid is not None:
                try:
                    os.kill(self.worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class Bench:
    """Set up one workload's service and drive its closed loop."""

    def __init__(self, spec: WorkloadSpec, seed: int, scratch: Path,
                 root: Path):
        self.spec = spec
        self.seed = seed
        self.setup_times: dict[str, float] = {}
        started = time.perf_counter()
        if spec.mode == "http":
            self.target = HttpTarget(spec, scratch, root)
        else:
            self.target = InProcessTarget(spec, scratch)
        self.setup_times["server_start_s"] = self.target.server_start_s
        self.setup_times["database_s"] = (
            time.perf_counter() - started - self.target.server_start_s
        )
        self.latencies = array("d")
        self.worker_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong_steps = 0
        self.number = 0
        self.position = 0
        try:
            self._warm_up()
            self.round = self._round(0)
            #: Submits per round: the timing windows of ``run.py``.
            self.round_submits = len(self.round.requests)
            self.check_ids = self.round.sessions[: spec.check_sessions]
            self.check_scripts = [self.round.scripts[session_id]
                                  for session_id in self.check_ids]
            started = time.perf_counter()
            self._open(self.round)
        except BaseException:
            self.close()
            raise
        self.setup_times["create_sessions_s"] = time.perf_counter() - started

    def _round(self, number: int) -> Round:
        return Round(self.spec, self.seed, first=self.seed * SEED_STRIDE,
                     count=self.spec.sessions, tag=f"-r{number}")

    def _open(self, round_: Round) -> None:
        for session_id in round_.sessions:
            self.target.api.create_session(session_id)

    def _retire(self, round_: Round, keep=()) -> None:
        for session_id in round_.sessions:
            if session_id not in keep:
                self.target.api.close_session(session_id)

    def _warm_up(self) -> None:
        """Run a few whole sessions so plans and kernels are compiled."""
        warm = Round(self.spec, self.seed,
                     first=self.seed * SEED_STRIDE + WARMUP_OFFSET,
                     count=self.spec.warmup_sessions, tag="-w")
        self._open(warm)
        for request in warm.requests:
            self.target.api.submit(request)
        self._retire(warm)

    def _next_round(self) -> None:
        keep = self.check_ids if self.number == 0 else ()
        self._retire(self.round, keep)
        self.number += 1
        self.round = self._round(self.number)
        self._open(self.round)
        self.position = 0

    def run(self, seconds: float, tracer=None, count_at=None,
            on_count=None) -> float:
        """Submit for ``seconds`` of timed wall time; returns it.

        With ``count_at``, ``on_count()`` is called once exactly after
        that many submits of this call, and the loop does not stop
        before then.
        """
        perf = time.perf_counter
        latencies = self.latencies
        spent = 0.0
        done = 0
        while True:
            if self.position == self.round_submits:
                if tracer is not None:
                    tracer.paused = True
                self._next_round()
                if tracer is not None:
                    tracer.paused = False
            requests = self.round.requests
            expected = self.round.expected
            submit = self.target.api.submit
            position = self.position
            end = len(requests)
            if count_at is not None and done < count_at:
                end = min(end, position + count_at - done)
            begun = perf()
            deadline = begun + seconds - spent
            now = begun
            while position < end:
                if tracer is not None:
                    tracer.request = self.attempted
                self.attempted += 1
                before = perf()
                try:
                    result = submit(requests[position])
                except ReproError:
                    self.failed += 1
                    now = perf()
                else:
                    now = perf()
                    latencies.append(now - before)
                    self.worker_seconds += result.latency_seconds
                    if result.step != expected[position]:
                        self.wrong_steps += 1
                position += 1
                if now >= deadline:
                    break
            spent += now - begun
            done += position - self.position
            self.position = position
            if count_at is not None and done == count_at:
                on_count()
                count_at = None
            if spent >= seconds and count_at is None:
                return spent

    def finish_checked_sessions(self) -> None:
        """Apply round 0's outstanding requests to the checked sessions."""
        if self.number != 0:
            return
        check = set(self.check_ids)
        for position in range(self.position, self.round_submits):
            request = self.round.requests[position]
            if request.session in check:
                self.target.api.submit(request)

    def reference_digest(self) -> str:
        """The checked sessions' digest from a fresh in-memory service.

        The reference runs each session to completion in turn, with no
        store tiering, auditor or wire in the way, so agreement shows
        the workload's interleaving and layers left every log intact.
        """
        scenario = resolve_scenario(self.spec.scenario)
        service = PodService(
            scenario.build_transducer(),
            scenario.database(seed=DATABASE_SEED, scale=self.spec.scale),
            keep_logs=True,
        )
        for session_id, script in zip(self.check_ids, self.check_scripts):
            service.create_session(session_id)
            service.run_session(session_id, script)
        return log_digest(service, self.check_ids)

    def close(self) -> None:
        if self.target is not None:
            self.target.close()
            self.target = None
