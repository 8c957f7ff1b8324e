"""The four benchmark workloads: set-up, one timed slice, correctness checks.

Every workload is a closed loop with one client: the timed region runs
fixed-work *slices* back to back, and each slice is one job whose host
time is its latency.  ``campaign`` is the exception: its slice is a burst
of service jobs, and each job's latency runs from its submission to its
completion.  Simulated statistics are deterministic for a seed; only host
times vary between runs.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.parallel import BenignReplicationSpec, run_replications
from repro.analysis.scenarios import build_scenario
from repro.attacks import Attacker, AttackPlanner
from repro.cli import _platform_config
from repro.defenses.registry import make_defense
from repro.sim import build_system, legacy_platform
from repro.sim.metrics import collect_metrics
from repro.workloads import SharedQueueRunner, WorkloadRunner

#: host-side bookkeeping that legitimately differs between the fast and
#: the reference path (how a batch was serviced, not what it simulated)
HOST_ONLY_STATS = ("columnar_fallbacks", "columnar_fallback_reasons")


@dataclass
class Slice:
    """What one timed slice did: host seconds and simulated work."""

    host_s: float
    requests: int
    acts: int
    sim_ns: int
    jobs: int = 1
    #: per-job host latencies; a plain slice is one job of ``host_s``
    latencies: List[float] = field(default_factory=list)
    #: failed operations inside the slice (failed/rejected jobs, retries)
    failed: int = 0
    #: operations attempted inside the slice
    attempted: int = 1
    #: host seconds of the service start-up a campaign burst made
    setup_s: Optional[float] = None

    def scaled(self, factor: float) -> "Slice":
        """The same slice with every host time multiplied by ``factor``."""
        return dataclasses.replace(
            self, host_s=self.host_s * factor,
            latencies=[latency * factor for latency in self.latencies],
            setup_s=None if self.setup_s is None else self.setup_s * factor,
        )


def sim_stats(system) -> Dict[str, object]:
    """Simulated controller statistics, minus host-side bookkeeping."""
    stats = dataclasses.asdict(system.controller.stats)
    for key in HOST_ONLY_STATS:
        stats.pop(key)
    return stats


def flip_list(system) -> List[tuple]:
    return [(f.victim, f.aggressor) for f in system.device.tracker.flips]


def cpu_counters(system) -> Tuple[int, ...]:
    cache, tlb = system.cache, system.mmu.tlb
    return (
        cache.hits, cache.misses, cache.evictions, cache.writebacks,
        cache.locked_hits, tlb.hits, tlb.misses, tlb.evictions,
    )


class Checks:
    """Correctness checks: every comparison or assertion is one attempt."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def compare(self, label: str, fast, reference) -> None:
        """Fail when two simulated outcomes differ."""
        self.attempted += 1
        if fast != reference:
            self.failures.append(f"{label}: fast path {fast!r:.200} != "
                                 f"reference {reference!r:.200}")

    def expect(self, condition: bool, message: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(message)


class Workload:
    """One benchmark workload, built from a seed."""

    name = ""
    #: slices in the job sequence an untraced run repeats from a fresh
    #: set-up; at least 100, so the p90 of the job latencies has ten
    #: samples beyond it
    sequence_slices = 100
    #: fixed number of slices in each leg of a traced run
    traced_slices = 100
    #: the calibration kernel (``KERNELS`` in run.py) whose slowdowns on a
    #: shared host track this workload's
    kernel = "interpreter"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        #: where a run may write (inside the checkout)
        self.out_dir = out_dir
        #: the system seed every build of this workload uses
        self.config_seed = random.Random(seed).randrange(1 << 30)
        #: ``sim_stats`` etc. recorded after the first timed slice
        self.first_slice: Optional[Dict[str, object]] = None
        #: known program defects the check observed (printed, not failed)
        self.defects: List[str] = []

    def setup(self):
        raise NotImplementedError

    def run_slice(self, state) -> Slice:
        raise NotImplementedError

    def record_first_slice(self, state) -> None:
        """Snapshot the simulated outcome of the first timed slice (the
        prefix the correctness check replays on the reference path)."""

    def check(self, state) -> Checks:
        """Compare the run with the program's reference paths."""
        raise NotImplementedError

    def systems(self, state) -> list:
        """The simulated systems a state drives (for counters)."""
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what ``setup`` acquired."""

    def tenants_served(self, state) -> Tuple[int, int]:
        """(tenants that issued a request, tenants)."""
        return 0, 0

    def planned_accesses(self, state) -> Tuple[int, int]:
        """(hammer rounds run, aggressor accesses those rounds plan)."""
        return 0, 0

    def runtime_digest(self, state) -> Dict[str, float]:
        """Campaign-service splits taken from its telemetry."""
        return {}


# ----------------------------------------------------------------------
# hammer: a long undefended double-sided hammer
# ----------------------------------------------------------------------


@dataclass
class HammerLeg:
    """One attacker hammering one system, continued slice after slice."""

    system: object
    attacker: Attacker
    defenses: list
    now: int = 0
    rounds: int = 0
    requested_rounds: int = 0
    cross_domain_flips: int = 0

    def hammer(self, rounds: int) -> Tuple[int, int, int]:
        """Hammer ``rounds`` more rounds through the columnar front end;
        return (requests, acts, simulated ns) added."""
        stats = self.system.controller.stats
        requests, acts = stats.requests, stats.acts
        result = self.attacker.run_rounds_columnar(rounds, start_ns=self.now)
        advanced = result.finished_ns - self.now
        self.now = result.finished_ns
        self.rounds += result.hammer_iterations
        self.requested_rounds += rounds
        self.cross_domain_flips += result.cross_domain_flips
        return stats.requests - requests, stats.acts - acts, advanced


def build_leg(config, defense_name: Optional[str], pattern: str,
              pages: int = 64, sides: int = 8) -> HammerLeg:
    """Victim and attacker tenants of ``pages`` pages each, interleaved,
    and the strongest ``pattern`` plan against the victim."""
    defenses = [make_defense(defense_name)] if defense_name else []
    scenario = build_scenario(
        config, defenses=defenses, interleaved_allocation=True,
        victim_pages=pages, attacker_pages=pages,
    )
    system = scenario.system
    plan = AttackPlanner(system, scenario.attacker).plan(
        scenario.victim, pattern, sides=sides
    )
    if not plan.viable or len(plan.aggressor_lines) < min(sides, 2):
        raise RuntimeError(f"{pattern} plan has too few aggressors")
    return HammerLeg(
        system, Attacker(system, scenario.attacker, plan), defenses
    )


def leg_outcome(leg: HammerLeg) -> Dict[str, object]:
    metrics = collect_metrics(
        leg.system, "check", elapsed_ns=leg.now, defenses=leg.defenses
    )
    row = dataclasses.asdict(metrics)
    row.pop("timeseries", None)
    return {
        "metrics": row,
        "stats": sim_stats(leg.system),
        "finished_ns": leg.now,
        "rounds": leg.rounds,
        "flips": flip_list(leg.system),
        "cpu": cpu_counters(leg.system),
    }


class Hammer(Workload):
    """Double-sided hammer, undefended, legacy platform."""

    name = "hammer"
    rounds_per_slice = 5_000
    #: pages per tenant and aggressor rows the plan asks for
    pages, sides = 64, 2

    def _config(self):
        return legacy_platform(scale=8, seed=self.config_seed)

    def setup(self) -> List[HammerLeg]:
        return [build_leg(self._config(), None, "double-sided",
                          self.pages, self.sides)]

    def run_slice(self, state) -> Slice:
        start = time.perf_counter()
        requests, acts, sim_ns = state[0].hammer(self.rounds_per_slice)
        return Slice(time.perf_counter() - start, requests, acts, sim_ns)

    def record_first_slice(self, state) -> None:
        self.first_slice = {"hammer": leg_outcome(state[0])}

    def systems(self, state) -> list:
        return [leg.system for leg in state]

    def planned_accesses(self, state) -> Tuple[int, int]:
        rounds = sum(leg.rounds for leg in state)
        planned = sum(
            leg.rounds * sum(leg.attacker.plan.weights
                             or (1,) * len(leg.attacker.plan.aggressor_lines))
            for leg in state
        )
        return rounds, planned

    def _reference(self, config, defense: Optional[str], pattern: str,
                   frontend: str) -> Dict[str, object]:
        """One slice on a fresh system through another front end."""
        leg = build_leg(config, defense, pattern, self.pages, self.sides)
        result = leg.attacker.run_rounds_columnar(
            self.rounds_per_slice, frontend=frontend
        )
        leg.now, leg.rounds = result.finished_ns, result.hammer_iterations
        return leg_outcome(leg)

    def check(self, state) -> Checks:
        checks = Checks()
        fast = self.first_slice["hammer"]
        scalar = self._reference(
            self._config(), None, "double-sided", "scalar"
        )
        for key in fast:
            checks.compare(f"hammer first slice {key} vs frontend=scalar",
                           fast[key], scalar[key])
        # The object path does not collapse the serial LLC latency chain,
        # so its clock runs differently by design (see
        # ``Attacker.run_rounds_columnar``): refreshes land between other
        # ACTs and may credit a flip to the other aggressor.  The access
        # stream, the ACTs and the flipped victims may not differ.
        leg = build_leg(self._config(), None, "double-sided",
                        self.pages, self.sides)
        result = leg.attacker.run_rounds(self.rounds_per_slice)
        checks.compare("hammer first slice rounds vs run_rounds",
                       fast["rounds"], result.hammer_iterations)
        checks.compare("hammer first slice acts vs run_rounds",
                       fast["stats"]["acts"],
                       leg.system.controller.stats.acts)
        checks.compare("hammer first slice flipped victims vs run_rounds",
                       [victim for victim, _ in fast["flips"]],
                       [victim for victim, _ in flip_list(leg.system)])
        hammer = state[0]
        checks.compare("hammer rounds completed", hammer.rounds,
                       hammer.requested_rounds)
        checks.expect(hammer.cross_domain_flips > 0,
                      "undefended hammer flipped no cross-domain bit")
        return checks


# ----------------------------------------------------------------------
# hammer_defended: 8-sided hammer against the two interrupt-driven defenses
# ----------------------------------------------------------------------


@dataclass
class Episodes:
    """The defended legs, rebuilt every ``episode_slices`` slices."""

    legs: List[HammerLeg]
    #: episodes started so far (the current one included)
    episodes: int = 1
    #: slices run on the current legs
    slices: int = 0
    #: ``totals`` of every leg of earlier episodes, in leg order
    finished: List[tuple] = field(default_factory=list)

    @staticmethod
    def totals(leg: HammerLeg) -> tuple:
        """What the check needs of a leg once its system is gone:
        (rounds, rounds requested, cross-domain flips, interrupts)."""
        return (
            leg.rounds, leg.requested_rounds,
            leg.cross_domain_flips + len(leg.system.cross_domain_flips()),
            leg.defenses[0].counters.get("interrupts", 0),
        )

    def retire(self, fresh: List[HammerLeg]) -> None:
        self.finished.extend(self.totals(leg) for leg in self.legs)
        self.legs, self.slices = fresh, 0
        self.episodes += 1
        gc.collect()


class HammerDefended(Hammer):
    """Many-sided hammer against aggressor-remap and targeted-refresh.

    ``aggressor-remap`` slows as it runs: every move scans more of the
    allocator's free list.  So the attack runs in episodes of
    ``episode_slices`` slices on freshly built systems, and the job
    sequence is a whole number of episodes.  How much a leg moves and
    refreshes depends on the system seed (counter-reset jitter), so each
    episode draws its own, and a sequence averages over several.
    """

    name = "hammer_defended"
    legs = ("aggressor-remap", "targeted-refresh")
    #: the allocator scans behind every page move walk large free lists,
    #: so host time here follows memory stalls more than the interpreter
    kernel = "memory"
    rounds_per_slice = 64
    #: 128-page tenants give the planner eight aggressor rows in one bank
    pages, sides = 128, 8
    episode_slices = 8
    sequence_slices = 13 * episode_slices
    traced_slices = episode_slices

    def _defended_config(self, defense: str, episode: int = 0):
        seed = self.config_seed
        if episode:
            seed = random.Random(f"{self.seed}/{episode}").randrange(1 << 30)
        return dataclasses.replace(
            _platform_config("legacy+primitives", 8, defense), seed=seed
        )

    def _build_legs(self, episode: int = 0) -> List[HammerLeg]:
        return [
            build_leg(self._defended_config(name, episode), name,
                      "many-sided", self.pages, self.sides)
            for name in self.legs
        ]

    def setup(self) -> Episodes:
        return Episodes(self._build_legs())

    def run_slice(self, state: Episodes) -> Slice:
        if state.slices == self.episode_slices:
            state.retire(self._build_legs(state.episodes))
        start = time.perf_counter()
        requests = acts = sim_ns = 0
        for leg in state.legs:
            r, a, s = leg.hammer(self.rounds_per_slice)
            requests, acts, sim_ns = requests + r, acts + a, sim_ns + s
        host_s = time.perf_counter() - start
        state.slices += 1
        return Slice(host_s, requests, acts, sim_ns)

    def record_first_slice(self, state: Episodes) -> None:
        self.first_slice = {
            name: leg_outcome(leg) for name, leg in zip(self.legs, state.legs)
        }

    def systems(self, state: Episodes) -> list:
        return [leg.system for leg in state.legs]

    def planned_accesses(self, state: Episodes) -> Tuple[int, int]:
        return super().planned_accesses(state.legs)

    def check(self, state: Episodes) -> Checks:
        checks = Checks()
        for name in self.legs:
            fast = self.first_slice[name]
            scalar = self._reference(
                self._defended_config(name), name, "many-sided", "scalar"
            )
            for key in fast:
                checks.compare(f"{name} first slice {key} vs frontend=scalar",
                               fast[key], scalar[key])
        totals = state.finished + [state.totals(leg) for leg in state.legs]
        for index, (rounds, requested, flips, interrupts) in enumerate(totals):
            name = self.legs[index % len(self.legs)]
            checks.compare(f"{name} rounds completed", rounds, requested)
            checks.expect(not flips, f"{name} let a cross-domain bit flip")
            checks.expect(interrupts > 0,
                          f"{name} never took an ACT interrupt")
        return checks


# ----------------------------------------------------------------------
# tenants: 64 trust domains through one FR-FCFS queue
# ----------------------------------------------------------------------


class Tenants(Workload):
    """64 domains of mixed reads and streaming writes, one shared queue."""

    name = "tenants"
    domains = 64
    pages = 16
    window = 16
    kinds = ("zipfian", "random", "sequential", "stride", "streaming_write")
    accesses_per_slice = 4096

    def setup(self) -> Tuple[object, SharedQueueRunner, List[int]]:
        system = build_system(legacy_platform(scale=8, seed=self.config_seed))
        rng = random.Random(self.seed)
        sources = [
            WorkloadRunner(
                system,
                system.create_domain(f"tenant{index}", pages=self.pages),
                # a fixed kind per slot keeps the traffic mix the same
                # for every seed; the seed picks each tenant's stream
                name=self.kinds[index % len(self.kinds)],
                mlp=4,
                seed=rng.randrange(1 << 30),
            )
            for index in range(self.domains)
        ]
        shared = SharedQueueRunner(
            system, sources, window=self.window, policy="fr-fcfs"
        )
        return system, shared, [0]

    def run_slice(self, state) -> Slice:
        system, shared, clock = state
        stats = system.controller.stats
        requests, acts = stats.requests, stats.acts
        start = time.perf_counter()
        finished = shared.run_columnar(
            self.accesses_per_slice, start_ns=clock[0]
        )
        host_s = time.perf_counter() - start
        advanced, clock[0] = finished - clock[0], finished
        return Slice(host_s, stats.requests - requests,
                     stats.acts - acts, advanced)

    @staticmethod
    def served(shared: SharedQueueRunner) -> List[int]:
        return [
            index for index, source in enumerate(shared.sources)
            if source.stepped_accesses
        ]

    def _outcome(self, system, shared, finished) -> Dict[str, object]:
        return {
            "stats": sim_stats(system),
            "finished_ns": finished,
            "flips": flip_list(system),
            "tlb": cpu_counters(system)[5:],
            "served": self.served(shared),
        }

    def record_first_slice(self, state) -> None:
        system, shared, clock = state
        self.first_slice = self._outcome(system, shared, clock[0])

    def systems(self, state) -> list:
        return [state[0]]

    def tenants_served(self, state) -> Tuple[int, int]:
        return len(self.served(state[1])), self.domains

    def check(self, state) -> Checks:
        checks = Checks()
        system, shared, _ = self.setup()
        finished = shared.run(self.accesses_per_slice)
        reference = self._outcome(system, shared, finished)
        fast = dict(self.first_slice)
        # Known defect, reported rather than failed: the columnar runner
        # accounts each tenant's TLB lookups for a whole chunk in turn,
        # not in the round-robin order the tenants issue them, so the
        # shared TLB's hit/miss counts drift from the object path.  No
        # simulated request, time or flip depends on them.
        tlb, reference_tlb = fast.pop("tlb"), reference.pop("tlb")
        if tlb != reference_tlb:
            self.defects.append(
                "tenants columnar TLB (hits, misses, evictions) "
                f"{tlb} != SharedQueueRunner.run {reference_tlb}"
            )
        for key, value in fast.items():
            checks.compare(
                f"tenants first slice {key} vs SharedQueueRunner.run",
                value, reference[key],
            )
        return checks


# ----------------------------------------------------------------------
# campaign: bursts of small replication jobs through the campaign service
# ----------------------------------------------------------------------

#: the defense x workload-kind grid campaign jobs are drawn from; not
#: ``aggressor-remap``, whose page moves under a benign load vary fivefold
#: with the seed (``hammer_defended`` measures it)
CAMPAIGN_DEFENSES = (
    None, "line-locking", "targeted-refresh", "blockhammer", "prac", "para",
)
CAMPAIGN_KINDS = ("zipfian", "random", "sequential", "stride")


@dataclass
class CampaignState:
    """Where a campaign run keeps its throwaway service directories."""

    scratch: Path
    bursts: int = 0
    #: (spec, seeds, journal results) of fresh jobs, for the check
    fresh_jobs: List[tuple] = field(default_factory=list)
    #: (repeat results, original results) pairs, for the check
    repeats: List[tuple] = field(default_factory=list)
    #: per-burst telemetry digests, for the traced run's runtime layer
    digests: List[Dict[str, float]] = field(default_factory=list)


class Campaign(Workload):
    """Bursts of E13-style replication jobs through ``CampaignService``."""

    name = "campaign"
    #: bursts are not repeated: the run submits bursts until ``--seconds``
    #: have passed and at least ``min_bursts`` ran, in whole rounds
    sequence_slices = 0
    #: bursts that together run the defense x kind grid once
    bursts_per_round = 3
    #: 18 bursts of six jobs: the p90 has ten job latencies beyond it
    min_bursts = 18
    #: repeated submissions per burst, beside its four fresh jobs
    repeats_per_burst = 2
    accesses = 600
    pages = 16
    max_inflight = 2
    #: fresh jobs of the first burst replayed serially by the check
    reference_jobs = 4
    traced_bursts = bursts_per_round

    def spec(self, defense: Optional[str], kind: str) -> BenignReplicationSpec:
        from repro.defenses.registry import DEFENSE_BY_NAME, platform_for

        platform = (
            platform_for(DEFENSE_BY_NAME[defense]) if defense else "legacy"
        )
        return BenignReplicationSpec(
            platform=platform, defense=defense, workload=kind,
            accesses=self.accesses, pages=self.pages, scale=8,
        )

    def setup(self) -> CampaignState:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return CampaignState(
            Path(tempfile.mkdtemp(prefix="campaign-", dir=self.out_dir))
        )

    def _service(self, root: Path):
        from repro.runtime.service import CampaignService, ServiceConfig

        return CampaignService(
            root,
            config=ServiceConfig(
                max_inflight=self.max_inflight, poll_s=0.01,
                max_queued=2 * len(CAMPAIGN_DEFENSES),
            ),
        )

    def burst_plan(self, burst: int) -> Tuple[List[tuple], List[tuple]]:
        """(fresh jobs, repeats), each job (spec, seeds, experiment,
        original index).

        A round of bursts runs every defense on two workload kinds that
        rotate with the round index, with one or two seeds, so a round's
        cost does not depend on the seed; the seed picks the replication
        seeds, how the round's jobs are shuffled into its bursts, and which
        jobs repeat.  A repeat resubmits a fresh job's spec and seeds
        under another experiment label: a new service job whose every
        result is already in the result cache.
        """
        round_index, part = divmod(burst, self.bursts_per_round)
        rng = random.Random(f"{self.seed}/{round_index}")
        kinds = len(CAMPAIGN_KINDS)
        cells = [
            (defense, CAMPAIGN_KINDS[(2 * round_index + index + k) % kinds],
             1 + k)
            for index, defense in enumerate(CAMPAIGN_DEFENSES)
            for k in range(2)
        ]
        rng.shuffle(cells)
        jobs = [
            (self.spec(defense, kind),
             [rng.randrange(1 << 20) for _ in range(count)], "bench", None)
            for defense, kind, count in cells
        ]
        size = len(jobs) // self.bursts_per_round
        fresh = jobs[part * size:(part + 1) * size]
        originals = random.Random(f"{self.seed}/{round_index}/{part}").sample(
            range(len(fresh)), self.repeats_per_burst
        )
        repeats = [
            (*fresh[original][:2], f"bench-repeat-{repeat}", original)
            for repeat, original in enumerate(originals)
        ]
        return fresh, repeats

    @staticmethod
    def _submit(service, jobs) -> Tuple[List[Tuple[str, int]], int]:
        """Submit ``jobs``; return (job id, submission ns) per job and how
        many were not admitted as new jobs."""
        submitted, refused = [], 0
        for spec, seeds, experiment, _ in jobs:
            stamp = time.time_ns()
            admission = service.submit(
                spec, seeds, experiment=experiment, jobs=1, timeout_s=60.0,
            )
            if not admission.accepted or not admission.fresh:
                refused += 1
            submitted.append((admission.job_id, stamp))
        return submitted, refused

    def run_slice(self, state: CampaignState) -> Slice:
        from repro.runtime.journal import load_journal
        from repro.runtime.queue import DONE, JobQueue, load_queue
        from repro.runtime.telemetry import read_telemetry

        root = state.scratch / f"burst-{state.bursts}"
        fresh, repeats = self.burst_plan(state.bursts)
        state.bursts += 1
        # Service start-up: the directory, the queue log and the cache.
        start = time.perf_counter()
        service = self._service(root)
        JobQueue.open(service.queue_path)
        service._cache()
        setup_s = time.perf_counter() - start
        # The repeats are submitted once the fresh jobs have drained, so
        # every one of their seeds is in the result cache.
        start = time.perf_counter()
        submitted, failed = self._submit(service, fresh)
        service.serve(drain_and_exit=True)
        more, refused = self._submit(service, repeats)
        summary = service.serve(drain_and_exit=True)
        serve_s = time.perf_counter() - start
        plan = fresh + repeats
        submitted += more
        failed += refused

        queue = load_queue(service.queue_path)
        events = read_telemetry(root / "service.telemetry")
        finished = {e.data["job"]: e.time_ns for e in events
                    if e.kind == "job_finished"}
        started = {e.data["job"]: e.time_ns for e in events
                   if e.kind == "job_started"}
        cached = sum(int(e.data.get("cache_hits", 0)) for e in events
                     if e.kind == "job_cached")
        latencies = []
        requests = acts = sim_ns = 0
        results = []
        digest = {"queue_wait_s": 0.0, "worker_start_s": 0.0,
                  "seed_compute_s": 0.0, "job_finish_s": 0.0,
                  "job_wall_s": 0.0, "retries": 0.0, "seeds": 0.0,
                  "cache_hits": float(cached),
                  "repeated_seeds": float(sum(len(job[1])
                                              for job in repeats))}
        for (job_id, stamp), job in zip(submitted, plan):
            record = queue.jobs.get(job_id)
            if record is None or record.state != DONE:
                failed += 1
                print(f"JOB FAILED: job {job_id[:12]} ended "
                      f"{record.state if record else 'unknown'}")
                results.append(None)
                continue
            latencies.append((finished[job_id] - stamp) / 1e9)
            journal = load_journal(service.journal_path(job_id))
            outcome = [journal.completed.get(seed) for seed in job[1]]
            results.append(outcome)
            digest["queue_wait_s"] += (started[job_id] - stamp) / 1e9
            digest["job_wall_s"] += (finished[job_id] - started[job_id]) / 1e9
            self._digest_job(service, job_id, started[job_id],
                             finished[job_id], digest)
            if job[3] is None:
                for seed_result in outcome:
                    requests += int(seed_result["requests"])
                    acts += int(seed_result["acts"])
                    sim_ns += int(seed_result["elapsed_ns"])
        digest["forks"] = float(summary["service.worker_forks"])
        digest["retries"] += summary["service.job_attempts"]
        failed += int(digest["retries"])
        for job, outcome in zip(plan, results):
            if job[3] is None:
                state.fresh_jobs.append((job[0], job[1], outcome))
            else:
                state.repeats.append((outcome, results[job[3]]))
        state.digests.append(digest)
        wall = (max(finished.values(), default=0) - submitted[0][1]) / 1e9
        shutil.rmtree(root, ignore_errors=True)
        return Slice(
            wall if wall > 0 else serve_s, requests, acts, sim_ns,
            jobs=len(latencies), latencies=latencies, failed=failed,
            attempted=len(plan) + int(digest["seeds"]), setup_s=setup_s,
        )

    @staticmethod
    def _digest_job(service, job_id: str, started_ns: int, finished_ns: int,
                    digest: Dict[str, float]) -> None:
        """Fold one job's own telemetry sidecar into the runtime splits:
        worker start (job start -> campaign start in the worker), seed
        compute, and finish (campaign end -> service marks it done)."""
        from repro.runtime.telemetry import read_telemetry, telemetry_path

        events = read_telemetry(telemetry_path(service.journal_path(job_id)))
        begun: Dict[int, int] = {}
        campaign_start = campaign_end = None
        computed = False
        for event in events:
            if event.kind == "campaign_started":
                campaign_start = event.time_ns
            elif event.kind == "campaign_finished":
                campaign_end = event.time_ns
            elif event.kind == "seed_started":
                begun[event.data["seed"]] = event.time_ns
                computed = True
            elif event.kind == "seed_finished":
                seed = event.data["seed"]
                digest["seed_compute_s"] += (event.time_ns - begun[seed]) / 1e9
                digest["seeds"] += 1
            elif event.kind == "seed_retried":
                digest["retries"] += 1
        if not computed:
            return  # answered inline from the cache: no worker ran
        if campaign_start is not None:
            digest["worker_start_s"] += (campaign_start - started_ns) / 1e9
        if campaign_end is not None:
            digest["job_finish_s"] += (finished_ns - campaign_end) / 1e9

    def systems(self, state) -> list:
        return []

    def runtime_digest(self, state: CampaignState) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for digest in state.digests:
            for key, value in digest.items():
                total[key] = total.get(key, 0.0) + value
        return total

    def reference_specs(self, state: CampaignState) -> List[tuple]:
        return state.fresh_jobs[:self.reference_jobs]

    def check(self, state: CampaignState) -> Checks:
        checks = Checks()
        for spec, seeds, outcome in self.reference_specs(state):
            reference = run_replications(spec, seeds, jobs=1)
            checks.compare(f"campaign job {spec.defense}/{spec.workload} vs "
                           "serial run_replications", outcome, reference)
        for repeat, original in state.repeats:
            checks.compare("campaign repeated job vs its original", repeat,
                           original)
        return checks

    def close(self, state: CampaignState) -> None:
        shutil.rmtree(state.scratch, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (Hammer, HammerDefended, Tenants, Campaign)
}
