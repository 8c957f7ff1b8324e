"""Long-running campaign service: queue, workers, backpressure, recovery.

:class:`CampaignService` turns the one-shot campaign runtime (journal +
supervisor + result cache, PRs 4–5) into a **service**: job specs enter
a durable :class:`~repro.runtime.queue.JobQueue`, a bounded set of
supervised worker processes drains it, and every robustness property of
a single campaign is preserved across jobs, restarts, and signals.

Scheduling & backpressure
    At most ``max_inflight`` jobs run at once; queued jobs wait in
    per-priority FIFO lanes (``high`` > ``normal`` > ``low``).
    **Admission control** happens at submit time: when the queue depth
    reaches ``max_queued`` or the service directory exceeds
    ``disk_budget_bytes``, the submission is *rejected with a reason*
    instead of being silently absorbed.

Idempotency & warm answers
    Jobs are keyed by the campaign fingerprint, so resubmission can
    never duplicate work: a queued/running job is a no-op, a ``done``
    job answers from its recorded result, and a job whose every seed is
    already in the shared :class:`~repro.analysis.cache.ResultCache`
    (or journal) completes **inline, forking no worker**.

Crash recovery
    Each job runs in its own worker process (``repro serve worker``)
    that journals every seed; a SIGKILL'd worker burns one attempt and
    the retry *resumes* from the journal (no lost or duplicated seeds —
    the aggregates stay bit-identical to an uninterrupted run).  A
    SIGKILL'd **service** leaves ``running`` markers in the queue log;
    the next ``serve`` reconciles them back to ``queued`` and resumes
    the same way.  Repeated failures trip a per-fingerprint **circuit
    breaker** after ``max_job_attempts`` attempts, with deterministic
    seeded backoff (:func:`~repro.runtime.supervisor.backoff_delay`)
    between attempts.

Graceful drain
    SIGTERM forwards to the workers, whose campaigns finish in-flight
    seeds, journal them, and exit :data:`EXIT_DRAINED`; the service
    requeues the jobs (no attempt burned) and exits 0.  Ctrl-C drains
    the same way but preserves the interrupted exit code (130) through
    the CLI wrapper.

Observability
    The service streams ``job_*``/``queue_depth`` lifecycle events to
    its own telemetry sidecar (``service.telemetry``, same JSONL wire
    format as campaign telemetry) and counts ``service.*`` metrics
    under ``assert_covers``; per-seed progress streams on each job's
    own ``<job>.journal.telemetry`` sidecar exactly as before.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.events import (
    JOB_CACHED,
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_FINISHED,
    JOB_REJECTED,
    JOB_REQUEUED,
    JOB_STARTED,
    JOB_SUBMITTED,
    QUEUE_DEPTH,
    SERVICE_DRAIN,
    SERVICE_STARTED,
    SERVICE_STOPPED,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.campaign import rebuild_from_signature, run_campaign
from repro.runtime.journal import (
    JournalError,
    campaign_fingerprint,
    load_journal,
    spec_signature,
)
from repro.runtime.queue import (
    CANCELLED,
    DONE,
    FAILED,
    PRIORITIES,
    QUEUE_FILE,
    QUEUED,
    RUNNING,
    JobQueue,
    JobRecord,
    QueueError,
)
from repro.runtime.supervisor import SupervisorPolicy, backoff_delay
from repro.runtime.telemetry import CampaignTelemetry

#: a drained worker exits with this code: the job is incomplete but
#: nothing failed — requeue it without burning an attempt (EX_TEMPFAIL)
EXIT_DRAINED = 75

#: worker exit code for an interrupted (SIGINT) campaign — also a
#: requeue-without-burn, mirroring the CLI's 130 contract
EXIT_INTERRUPTED = 130

#: service telemetry sidecar, beside the queue log
SERVICE_TELEMETRY = "service.telemetry"

#: every ``service.*`` metric the service maintains; ``assert_covers``
#: makes forgetting to register a new one a hard error
SERVICE_METRIC_KEYS = (
    "jobs_submitted",
    "jobs_rejected",
    "jobs_completed",
    "jobs_failed",
    "jobs_requeued",
    "jobs_cancelled",
    "jobs_cached_warm",
    "worker_forks",
    "job_attempts",
    "drains",
)


class ServiceError(RuntimeError):
    """The service directory or a job is in an unusable state."""


@dataclass(frozen=True)
class ServiceConfig:
    """Backpressure, admission, and recovery knobs."""

    #: jobs running concurrently (each is one worker process)
    max_inflight: int = 2
    #: admission ceiling on queued + running jobs
    max_queued: int = 64
    #: admission ceiling on the service directory's on-disk bytes
    #: (``None`` disables the disk budget)
    disk_budget_bytes: Optional[int] = None
    #: circuit breaker: attempts per job before it is marked failed
    max_job_attempts: int = 3
    #: first job-level backoff delay; attempt ``n`` waits ~base*2**(n-1)
    backoff_base_s: float = 0.25
    #: ceiling on any single job-level backoff delay
    backoff_cap_s: float = 30.0
    #: serve-loop tick interval
    poll_s: float = 0.05
    #: SIGTERM drain: seconds workers get to salvage before SIGKILL
    drain_grace_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        if self.max_job_attempts < 1:
            raise ValueError("max_job_attempts must be >= 1")
        if (
            self.disk_budget_bytes is not None
            and self.disk_budget_bytes <= 0
        ):
            raise ValueError("disk_budget_bytes must be positive or None")

    def backoff_policy(self) -> SupervisorPolicy:
        """The policy object job-level backoff delays derive from."""
        return SupervisorPolicy(
            backoff_base_s=self.backoff_base_s,
            backoff_cap_s=self.backoff_cap_s,
        )


#: the pseudo-seed job-level backoff keys on (seeds key per-seed delays)
JOB_BACKOFF_SEED = -1


def job_backoff_delay(
    fingerprint: str, attempt: int, config: ServiceConfig
) -> float:
    """Deterministic per-(fingerprint, attempt) circuit-breaker delay."""
    return backoff_delay(
        fingerprint, JOB_BACKOFF_SEED, attempt, config.backoff_policy()
    )


@dataclass(frozen=True)
class Admission:
    """What ``submit`` decided, and why."""

    accepted: bool
    job_id: str
    state: str
    reason: str
    #: a new queue entry was actually appended (idempotent hits are not)
    fresh: bool


def dir_bytes(root: Union[str, Path]) -> int:
    """Total size of every regular file under ``root`` (disk budget)."""
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(base, name)).st_size
            except OSError:  # pragma: no cover - raced unlink
                pass
    return total


def _worker_env() -> Dict[str, str]:
    """Environment for a forked worker: parent env plus an importable
    ``repro``.

    The service may itself run via a script that inserted ``src/`` on
    ``sys.path`` without exporting PYTHONPATH (``perfbench/run.py`` does
    exactly that); ``python -m repro`` in the child would
    then fail to import.  Prepending this package's parent directory
    keeps the child's interpreter pointed at the same code.
    """
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parents[2])
    parts = env.get("PYTHONPATH", "")
    if pkg_root not in parts.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + os.pathsep + parts if parts else pkg_root
        )
    return env


class CampaignService:
    """One campaign-service directory: queue log, job journals, cache.

    Layout under ``root``::

        queue.jsonl                durable op log (see runtime.queue)
        service.telemetry          service lifecycle JSONL sidecar
        jobs/<id>.journal          per-job campaign journal
        jobs/<id>.journal.telemetry  per-job seed lifecycle sidecar
        jobs/<id>.result.json      atomic end-of-job summary
        cache/                     shared ResultCache (default location)

    ``submit``/``cancel``/``status`` are safe from any process; exactly
    one ``serve`` loop should run per directory at a time (a second one
    would double-launch workers — the queue log stays consistent, but
    the duplicated work defeats the point).
    """

    def __init__(
        self,
        root: Union[str, Path],
        config: Optional[ServiceConfig] = None,
        cache_dir: Union[str, Path, None] = None,
        use_cache: bool = True,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self.root.mkdir(parents=True, exist_ok=True)
        self.jobs_dir = self.root / "jobs"
        self.queue_path = self.root / QUEUE_FILE
        self.use_cache = use_cache
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None
            else self.root / "cache"
        )
        self.metrics = MetricsRegistry()
        for key in SERVICE_METRIC_KEYS:
            self.metrics.counter(f"service.{key}")
        self._telemetry: Optional[CampaignTelemetry] = None
        self._drain = False
        self._last_depth: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def journal_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.journal"

    def result_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.result.json"

    def _cache(self):
        if not self.use_cache:
            return None
        from repro.analysis.cache import ResultCache

        return ResultCache(self.cache_dir)

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(f"service.{name}").add(amount)

    def _emit(self, kind: str, **data: object) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(kind, **data)

    def _emit_depth(self, queue: JobQueue) -> None:
        """Emit ``queue_depth`` whenever the depth profile changes."""
        lanes = queue.lanes()
        profile = {
            "running": len(queue.by_state(RUNNING)),
            **{f"queued_{p}": len(lanes[p]) for p in PRIORITIES},
        }
        if profile != self._last_depth:
            self._last_depth = dict(profile)
            self._emit(QUEUE_DEPTH, depth=queue.depth(), **profile)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Every ``service.*`` metric; coverage-asserted so a new
        counter can never silently drop out of the table."""
        self.metrics.assert_covers(list(SERVICE_METRIC_KEYS), "service")
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Submission & admission control
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: object = None,
        seeds: Sequence[int] = (),
        experiment: str = "",
        priority: str = "normal",
        jobs: Optional[int] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        signature: Optional[Mapping[str, object]] = None,
    ) -> Admission:
        """Admit one job (idempotently) or reject it with a reason.

        Pass either a spec object or its ``spec_signature`` dict; seeds
        and experiment complete the campaign fingerprint, which *is*
        the job id.  The spec must be rebuildable
        (:func:`~repro.runtime.campaign.rebuild_from_signature`) or the
        worker could never reconstruct it — that is checked here, at
        admission, not at run time.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        if signature is None:
            if spec is None:
                raise ValueError("need a spec or a spec signature")
            signature = spec_signature(spec)
        rebuilt = rebuild_from_signature(signature)  # raises if not
        job_id = campaign_fingerprint(rebuilt, seeds, experiment)

        queue = JobQueue.open(self.queue_path)
        existing = queue.jobs.get(job_id)
        if existing is not None and existing.state in (QUEUED, RUNNING):
            return Admission(
                accepted=True, job_id=job_id, state=existing.state,
                reason=f"already {existing.state} (idempotent submit)",
                fresh=False,
            )
        if existing is not None and existing.state == DONE:
            return Admission(
                accepted=True, job_id=job_id, state=DONE,
                reason=f"already complete; result at "
                       f"{self.result_path(job_id)}",
                fresh=False,
            )
        depth = queue.depth()
        if depth >= self.config.max_queued:
            return self._reject(
                job_id,
                f"queue full: {depth} jobs queued or running "
                f">= max_queued {self.config.max_queued}",
            )
        if self.config.disk_budget_bytes is not None:
            used = dir_bytes(self.root)
            if used > self.config.disk_budget_bytes:
                return self._reject(
                    job_id,
                    f"disk budget exhausted: {used} bytes under "
                    f"{self.root} > budget "
                    f"{self.config.disk_budget_bytes}",
                )
        queue.append_submit(
            JobRecord(
                job_id=job_id,
                experiment=experiment,
                spec=dict(signature),
                seeds=seeds,
                priority=priority,
                jobs=jobs,
                timeout_s=timeout_s,
                max_retries=max_retries,
                submitted_at=time.time(),
            ).as_json_dict()
        )
        self._count("jobs_submitted")
        if existing is not None:
            reason = f"re-armed after {existing.state}"
        else:
            reason = "accepted"
        return Admission(
            accepted=True, job_id=job_id, state=QUEUED,
            reason=reason, fresh=True,
        )

    def _reject(self, job_id: str, reason: str) -> Admission:
        """Refuse admission, counting and journaling the rejection.

        Rejected submissions never reach the queue log, so the serve
        loop cannot surface them — the submitter appends the telemetry
        event itself (the sidecar's locked appends make that safe from
        any process).
        """
        self._count("jobs_rejected")
        if self._telemetry is not None:
            self._telemetry.emit(JOB_REJECTED, job=job_id, reason=reason)
        else:
            with CampaignTelemetry(
                self.root / SERVICE_TELEMETRY, append=True
            ) as stream:
                stream.emit(JOB_REJECTED, job=job_id, reason=reason)
        return Admission(
            accepted=False, job_id=job_id, state="rejected",
            reason=reason, fresh=False,
        )

    def cancel(self, job_id: str, reason: str = "") -> bool:
        """Request cancellation; returns whether the job was known."""
        queue = JobQueue.open(self.queue_path)
        if job_id not in queue.jobs:
            return False
        queue.append_cancel(job_id, reason=reason)
        return True

    # ------------------------------------------------------------------
    # The serve loop
    # ------------------------------------------------------------------

    def serve(
        self,
        drain_and_exit: bool = False,
        max_ticks: Optional[int] = None,
        tick_hook=None,
    ) -> Dict[str, object]:
        """Drain the queue until stopped (or, with ``drain_and_exit``,
        until no job is queued or running).

        ``max_ticks`` bounds the loop for tests; ``tick_hook`` (tests
        only) runs at the top of every tick.  Returns the final
        ``service.*`` metrics snapshot merged with the queue counts.
        SIGTERM triggers a graceful drain; ``KeyboardInterrupt`` drains
        the workers the same way, then propagates so the CLI can exit
        130.
        """
        config = self.config
        queue = JobQueue.open(self.queue_path)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._telemetry = CampaignTelemetry(
            self.root / SERVICE_TELEMETRY, append=True
        )
        self._drain = False
        previous_sigterm = None

        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            self._drain = True

        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # not the main thread (tests)
            previous_sigterm = None

        running: Dict[str, subprocess.Popen] = {}
        terminated: set = set()
        drain_announced = False
        drain_deadline: Optional[float] = None
        self._emit(
            SERVICE_STARTED,
            root=str(self.root),
            max_inflight=config.max_inflight,
            max_queued=config.max_queued,
            drain_and_exit=drain_and_exit,
        )
        self._reconcile(queue)
        ticks = 0
        try:
            while True:
                if tick_hook is not None:
                    tick_hook(self, queue)
                ticks += 1
                for op in queue.poll():
                    self._op_telemetry(queue, op)
                self._handle_cancel_requests(queue, running, terminated)
                self._reap(queue, running, terminated)

                if self._drain:
                    if not drain_announced:
                        drain_announced = True
                        drain_deadline = (
                            time.monotonic() + config.drain_grace_s
                        )
                        self._count("drains")
                        self._emit(
                            SERVICE_DRAIN,
                            running=sorted(running),
                            queued=len(queue.by_state(QUEUED)),
                        )
                        for process in running.values():
                            process.terminate()
                    if not running:
                        break
                    if (
                        drain_deadline is not None
                        and time.monotonic() > drain_deadline
                    ):  # pragma: no cover - pathological worker
                        for process in running.values():
                            process.kill()
                        drain_deadline = None
                else:
                    self._launch(queue, running)
                    if (
                        drain_and_exit
                        and not running
                        and not queue.by_state(QUEUED)
                        and not queue.by_state(RUNNING)
                    ):
                        break
                    if max_ticks is not None and ticks >= max_ticks:
                        break
                self._emit_depth(queue)
                time.sleep(config.poll_s)
        except KeyboardInterrupt:
            # Ctrl-C: drain the workers (they salvage + journal), then
            # let the interrupt propagate so the CLI exits 130.
            self._drain = True
            self._count("drains")
            self._emit(SERVICE_DRAIN, running=sorted(running), interrupted=True)
            self._shutdown(queue, running, terminated)
            raise
        finally:
            self._emit(
                SERVICE_STOPPED,
                drained=self._drain,
                ticks=ticks,
                counts=queue.counts(),
                metrics=self.metrics_snapshot(),
            )
            if self._telemetry is not None:
                self._telemetry.close()
                self._telemetry = None
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        summary: Dict[str, object] = dict(self.metrics_snapshot())
        summary.update(queue.counts())
        summary["drained"] = self._drain
        return summary

    # ------------------------------------------------------------------
    # Serve-loop pieces
    # ------------------------------------------------------------------

    def _reconcile(self, queue: JobQueue) -> None:
        """A crashed service leaves ``running`` markers; requeue them.

        The job journals hold everything those workers finished, so the
        relaunch resumes rather than recomputes.
        """
        for job in queue.by_state(RUNNING):
            queue.append_state(
                job.job_id, QUEUED, attempts=job.attempts,
                reason="service restarted with job in flight",
            )
            self._count("jobs_requeued")
            self._emit(
                JOB_REQUEUED, job=job.job_id,
                reason="service restarted with job in flight",
                attempts=job.attempts,
            )
        queue.poll()

    def _op_telemetry(self, queue: JobQueue, op: Mapping[str, object]) -> None:
        """Surface ops appended by *other* processes (submits, cancels)."""
        if op.get("op") == "submit":
            job = op.get("job", {})
            self._emit(
                JOB_SUBMITTED,
                job=str(job.get("id")),  # type: ignore[union-attr]
                experiment=str(job.get("experiment")),  # type: ignore
                priority=str(job.get("priority")),  # type: ignore
                seeds=len(job.get("seeds", ())),  # type: ignore
                depth=queue.depth(),
            )

    def _handle_cancel_requests(
        self, queue: JobQueue, running: Dict[str, subprocess.Popen],
        terminated: set,
    ) -> None:
        for job in queue.by_state(RUNNING):
            if job.cancel_requested and job.job_id in running \
                    and job.job_id not in terminated:
                running[job.job_id].terminate()
                terminated.add(job.job_id)

    def _reap(
        self, queue: JobQueue, running: Dict[str, subprocess.Popen],
        terminated: set,
    ) -> None:
        for job_id, process in list(running.items()):
            code = process.poll()
            if code is None:
                continue
            del running[job_id]
            terminated.discard(job_id)
            job = queue.jobs.get(job_id)
            cancel_requested = job.cancel_requested if job else False
            attempts = job.attempts if job else 0
            if cancel_requested:
                queue.append_state(
                    job_id, CANCELLED, attempts=attempts,
                    reason="cancelled while running",
                )
                self._count("jobs_cancelled")
                self._emit(JOB_CANCELLED, job=job_id, exit_code=code)
            elif code == 0 and self._job_complete(queue, job_id):
                queue.append_state(job_id, DONE, attempts=attempts)
                self._count("jobs_completed")
                self._emit(JOB_FINISHED, job=job_id, attempts=attempts)
            elif code in (EXIT_DRAINED, EXIT_INTERRUPTED):
                queue.append_state(
                    job_id, QUEUED, attempts=attempts,
                    reason="drained mid-job; journal holds progress",
                )
                self._count("jobs_requeued")
                self._emit(
                    JOB_REQUEUED, job=job_id, exit_code=code,
                    reason="drained",
                )
            else:
                self._attempt_failed(
                    queue, job_id, attempts,
                    reason=f"worker exited {code}",
                )
            queue.poll()

    def _attempt_failed(
        self, queue: JobQueue, job_id: str, attempts: int, reason: str
    ) -> None:
        """Burn one attempt; trip the circuit breaker or back off."""
        attempts += 1
        self._count("job_attempts")
        if attempts >= self.config.max_job_attempts:
            queue.append_state(
                job_id, FAILED, attempts=attempts,
                reason=f"circuit breaker open after {attempts} "
                       f"attempts: {reason}",
            )
            self._count("jobs_failed")
            self._emit(
                JOB_FAILED, job=job_id, attempts=attempts, reason=reason,
            )
            return
        delay = job_backoff_delay(job_id, attempts, self.config)
        queue.append_state(
            job_id, QUEUED, attempts=attempts, reason=reason,
            not_before=time.time() + delay,
        )
        self._count("jobs_requeued")
        self._emit(
            JOB_REQUEUED, job=job_id, attempts=attempts, reason=reason,
            delay_s=round(delay, 6),
        )

    def _job_complete(self, queue: JobQueue, job_id: str) -> bool:
        """A worker exited 0 — trust but verify against the journal."""
        job = queue.jobs.get(job_id)
        if job is None:  # pragma: no cover - defensive
            return False
        try:
            snapshot = load_journal(self.journal_path(job_id))
        except JournalError:
            return False
        return all(seed in snapshot.completed for seed in job.seeds)

    def _launch(
        self, queue: JobQueue, running: Dict[str, subprocess.Popen]
    ) -> None:
        while len(running) < self.config.max_inflight:
            job = queue.next_ready()
            if job is None or job.job_id in running:
                return
            queue.append_state(
                job.job_id, RUNNING, attempts=job.attempts,
            )
            queue.poll()
            self._emit(
                JOB_STARTED, job=job.job_id, attempt=job.attempts + 1,
                priority=job.priority, depth=queue.depth(),
            )
            if self._complete_warm(queue, job):
                continue
            argv = [
                sys.executable, "-m", "repro", "serve", "worker",
                str(self.root), job.job_id,
            ]
            if not self.use_cache:
                argv.append("--no-cache")
            else:
                argv.extend(["--cache-dir", str(self.cache_dir)])
            running[job.job_id] = subprocess.Popen(argv, env=_worker_env())
            self._count("worker_forks")

    def _complete_warm(self, queue: JobQueue, job: JobRecord) -> bool:
        """Finish a job inline iff no seed needs a worker.

        Warm means: every seed is already in the job's journal or in
        the shared result cache.  The inline ``run_campaign`` then
        schedules nothing (cached seeds bypass the supervisor), so a
        warm job — e.g. an idempotent resubmission of a completed
        campaign into a fresh service — forks no worker at all.
        """
        try:
            spec = rebuild_from_signature(job.spec)
        except JournalError:  # pragma: no cover - submit() checked this
            return False
        journal = self.journal_path(job.job_id)
        completed: set = set()
        if journal.exists():
            try:
                completed = set(load_journal(journal).completed)
            except JournalError:
                completed = set()
        pending = [s for s in job.seeds if s not in completed]
        cache = self._cache()
        if pending:
            if cache is None:
                return False
            from repro.analysis.cache import is_cacheable

            if not is_cacheable(spec):
                return False
            if any(cache.get(spec, seed) is None for seed in pending):
                return False
        try:
            result = run_campaign(
                spec, job.seeds, jobs=1,
                journal_path=journal, resume=journal.exists(),
                experiment=job.experiment, cache=cache,
            )
        except (JournalError, OSError) as error:
            self._attempt_failed(
                queue, job.job_id, job.attempts,
                reason=f"warm completion failed: {error}",
            )
            return True
        write_job_result(self.result_path(job.job_id), job, result)
        queue.append_state(job.job_id, DONE, attempts=job.attempts)
        self._count("jobs_cached_warm")
        self._count("jobs_completed")
        self._emit(
            JOB_CACHED, job=job.job_id, cache_hits=result.cache_hits,
            resumed=result.resumed,
        )
        self._emit(JOB_FINISHED, job=job.job_id, warm=True)
        queue.poll()
        return True

    def _shutdown(
        self, queue: JobQueue, running: Dict[str, subprocess.Popen],
        terminated: set,
    ) -> None:
        """Drain helper for the KeyboardInterrupt path: SIGTERM every
        worker, wait out the grace period, reap, requeue."""
        for process in running.values():
            process.terminate()
        deadline = time.monotonic() + self.config.drain_grace_s
        while running and time.monotonic() < deadline:
            self._reap(queue, running, terminated)
            time.sleep(self.config.poll_s)
        for process in running.values():  # pragma: no cover - stuck
            process.kill()
        self._reap(queue, running, terminated)


# ----------------------------------------------------------------------
# Worker entry point (``repro serve worker``)
# ----------------------------------------------------------------------


def write_job_result(path: Path, job: JobRecord, result) -> Path:
    """Atomically record a finished job's summary beside its journal."""
    import json
    import tempfile

    aggregates = result.aggregates or {}
    payload = {
        "job": job.job_id,
        "experiment": job.experiment,
        "seeds": len(job.seeds),
        "completed": len(result.completed),
        "resumed": result.resumed,
        "cache_hits": result.cache_hits,
        "retries": result.retries,
        "respawns": result.respawns,
        "timeouts": result.timeouts,
        "degraded": result.degraded,
        "aggregates": {
            name: {
                "samples": agg.samples,
                "mean": agg.mean,
                "stdev": agg.stdev,
                "minimum": agg.minimum,
                "maximum": agg.maximum,
            }
            for name, agg in aggregates.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{job.job_id[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def run_worker(
    root: Union[str, Path],
    job_id: str,
    cache_dir: Union[str, Path, None] = None,
    use_cache: bool = True,
) -> int:
    """Run one job to completion (or drain) inside a worker process.

    Resumes from the job's journal when one exists, finishes in-flight
    seeds and exits :data:`EXIT_DRAINED` on SIGTERM, publishes the
    shared cache's hit/miss counters for cross-process accounting, and
    reports through exit codes: 0 complete, 1 incomplete (seed failures
    or I/O errors — the service burns an attempt), 2 unusable job or
    directory, 75 drained, 130 interrupted.
    """
    from repro.runtime.campaign import CampaignInterrupted
    from repro.runtime.queue import load_queue

    service = CampaignService(
        root, cache_dir=cache_dir, use_cache=use_cache
    )
    try:
        queue = load_queue(service.queue_path)
    except QueueError as error:
        print(f"repro serve worker: {error}", file=sys.stderr)
        return 2
    job = queue.jobs.get(job_id)
    if job is None:
        print(f"repro serve worker: unknown job {job_id}", file=sys.stderr)
        return 2
    try:
        spec = rebuild_from_signature(job.spec)
    except JournalError as error:
        print(f"repro serve worker: {error}", file=sys.stderr)
        return 2
    journal = service.journal_path(job_id)
    policy = SupervisorPolicy(
        timeout_s=job.timeout_s, max_retries=job.max_retries
    )
    cache = service._cache()
    try:
        result = run_campaign(
            spec, job.seeds, jobs=job.jobs, policy=policy,
            journal_path=journal, resume=journal.exists(),
            experiment=job.experiment, cache=cache,
            drain_on_sigterm=True,
        )
    except CampaignInterrupted:
        return EXIT_INTERRUPTED
    except JournalError as error:
        print(f"repro serve worker: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # e.g. disk-full on a journal append: the journal's clean
        # prefix is durable, so this attempt simply burns and the
        # retry resumes from it.
        print(f"repro serve worker: I/O failure: {error}", file=sys.stderr)
        return 1
    finally:
        if cache is not None:
            try:
                cache.publish_counters(f"worker-{job_id[:8]}-{os.getpid()}")
            except OSError:  # pragma: no cover - stats are best-effort
                pass
    if result.drained and not result.complete:
        return EXIT_DRAINED
    if result.complete:
        write_job_result(service.result_path(job_id), job, result)
        return 0
    return 1
