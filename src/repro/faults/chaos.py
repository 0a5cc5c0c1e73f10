"""Deterministic chaos harness for the kernel and serving crash protocols.

Two planes announce every crashable protocol step through an
``at_step(step, roles)`` hook: the kernel's two-phase migration
hand-off (:mod:`repro.kernel.migration`) and hDSM fault paths
(:mod:`repro.kernel.dsm`) through
:meth:`~repro.kernel.messages.MessagingLayer.chaos_step`, and the
serving engine's request lifecycle and hand-off phases
(:mod:`repro.serving.engine`).  One harness turns those announcements
into a systematic experiment over either plane:

1. **Reference run** — the scenario executes with no chaos hook at all
   (the exact seed code path); its outcome is the oracle.
2. **Recording run** — a :class:`CrashInjector` listens to the
   announcement stream and records every :class:`ProtocolSite` (step
   name + participants), without crashing anything.  The run must
   reproduce the reference, or the harness itself is broken.
3. **Armed runs** — one fresh run per (site, victim): the injector
   crashes the victim the moment that step announces itself, with
   invariant checking force-enabled, then the run is classified:

   * ``completed`` — the run survived the crash and matches the
     reference (the protocol recovered);
   * ``failed-loud`` — work was lost *visibly* and accounted for —
     acceptable: crashes may lose work, never silently corrupt it;
   * ``violation`` — anything else: silently wrong output, a silently
     dropped request, an
     :class:`~repro.validate.errors.InvariantViolation`, or an armed
     crash point that never fired.

A scenario supplies only what differs per plane: how to run one case
with an injector attached (``run``) and how to classify the result
(``classify``).

* **Kernel plane** (:class:`ChaosScenario`) — crashes a kernel via
  ``PopcornSystem.crash_kernel``.  The oracle is the process's output
  and exit code; every armed run ends with
  :func:`repro.validate.check_crash_consistency` (exactly-one-copy
  thread conservation + no-dead-routes) and a byte-conservation audit
  (every interconnect byte attributable to a message kind).
* **Serving plane** (:class:`ServingChaosScenario`) — crashes a machine
  via ``ServingEngine.inject_crash``.  The oracle is the set of request
  ids that complete: an armed run completes if the same ids complete
  with nothing shed or failed, and fails loud if every loss is
  accounted (the engine's request-conservation audit runs
  force-enabled, so admitted == completed + shed + failed-loudly).

A seeded **soak mode** layers randomized (site, victim) picks on top of
the exhaustive enumeration, for longer runs in CI.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import validate
from repro.kernel import boot_testbed
from repro.runtime.execution import EngineHooks, ExecutionEngine
from repro.sim.numeric import ordered_sum
from repro.sim.rng import DeterministicRng
from repro.telemetry.validation import default_log
from repro.validate.errors import InvariantViolation, fail

COMPLETED = "completed"
FAILED_LOUD = "failed-loud"
VIOLATION = "violation"


@dataclass(frozen=True)
class ProtocolSite:
    """One announced crashable protocol step in a recorded trace."""

    seq: int  # position in the announcement stream (deterministic)
    step: str  # e.g. "migrate.transfer", "dsm.page", "serve.admit"
    roles: Tuple[Tuple[str, str], ...]  # (role, participant), sorted by role

    @property
    def victims(self) -> List[str]:
        """Participants in the step (crash candidates)."""
        return sorted({name for _, name in self.roles})

    @property
    def key(self) -> Tuple:
        """Dedup key: same step + same participants = same crash case."""
        return (self.step, self.roles)

    def describe(self) -> str:
        parts = ", ".join(f"{role}={name}" for role, name in self.roles)
        return f"#{self.seq} {self.step}({parts})"


class CrashInjector:
    """The ``at_step`` chaos hook: records sites; crashes when armed.

    ``crash`` kills a participant by name (``PopcornSystem.crash_kernel``
    or ``ServingEngine.inject_crash``).  ``armed`` is ``(seq, victim)``:
    crash ``victim`` when announcement number ``seq`` arrives, once.
    """

    def __init__(
        self,
        crash: Callable[[str], None],
        armed: Optional[Tuple[int, str]] = None,
    ):
        self.crash = crash
        self.sites: List[ProtocolSite] = []
        self.fired: Optional[ProtocolSite] = None
        self._armed = armed

    def at_step(self, step: str, roles: Dict[str, str]) -> bool:
        site = ProtocolSite(len(self.sites), step, tuple(sorted(roles.items())))
        self.sites.append(site)
        if self._armed is not None and self._armed[0] == site.seq:
            victim = self._armed[1]
            self._armed = None  # one shot: the token applies once
            self.fired = site
            self.crash(victim)
            return True
        return False


@dataclass
class ChaosCase:
    """The classified outcome of one armed run."""

    scenario: str
    site: ProtocolSite
    victim: str
    outcome: str  # COMPLETED | FAILED_LOUD | VIOLATION
    detail: str = ""

    def describe(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return (
            f"[{self.outcome:<11}] {self.scenario} crash {self.victim} "
            f"at {self.site.describe()}{tail}"
        )


@dataclass
class ChaosReport:
    """All cases for one scenario (plus optional soak iterations)."""

    scenario: str
    sites_announced: int = 0
    sites_enumerated: int = 0
    cases: List[ChaosCase] = field(default_factory=list)

    @property
    def violations(self) -> List[ChaosCase]:
        return [c for c in self.cases if c.outcome == VIOLATION]

    @property
    def completed(self) -> int:
        return sum(1 for c in self.cases if c.outcome == COMPLETED)

    @property
    def failed_loud(self) -> int:
        return sum(1 for c in self.cases if c.outcome == FAILED_LOUD)

    def render(self, verbose: bool = False) -> str:
        lines = [
            f"chaos {self.scenario}: {self.sites_announced} protocol steps "
            f"announced, {self.sites_enumerated} distinct crash points, "
            f"{len(self.cases)} armed runs -> "
            f"{self.completed} completed, {self.failed_loud} failed loud, "
            f"{len(self.violations)} VIOLATIONS"
        ]
        shown = self.cases if verbose else self.violations
        lines.extend("  " + case.describe() for case in shown)
        return "\n".join(lines)


class ChaosHarness:
    """Enumerates crash points for one scenario and classifies each."""

    def __init__(self, scenario):
        self.scenario = scenario
        # Built once, shared by every run of this harness.
        self._prepared = scenario.prepare()
        self._reference = None

    def _run(self, chaos: bool = True, armed: Optional[Tuple[int, str]] = None):
        """One full run; returns (result, injector or None)."""
        return self.scenario.run(self._prepared, chaos, armed)

    def reference(self):
        """Fault-free oracle (no chaos hook attached at all)."""
        if self._reference is None:
            result, _ = self._run(chaos=False)
            self._reference = self.scenario.signature(result)
        return self._reference

    def record_sites(self) -> List[ProtocolSite]:
        """Unarmed recording run; asserts it matches the reference."""
        reference = self.reference()
        result, injector = self._run()
        recorded = self.scenario.signature(result)
        default_log().note_check("chaos")
        if recorded != reference:
            fail(
                "chaos", "recording-run-deterministic",
                f"unarmed chaos run of {self.scenario.name} diverged from "
                f"the reference (the announcement hook must be inert)",
                {"reference": reference, "recorded": recorded},
            )
        return injector.sites

    def run_case(self, site: ProtocolSite, victim: str) -> ChaosCase:
        """One armed run: crash ``victim`` at ``site``, classify."""
        reference = self.reference()

        def case(outcome: str, detail: str = "") -> ChaosCase:
            return ChaosCase(self.scenario.name, site, victim, outcome, detail)

        try:
            with validate.forced(True):
                result, injector = self._run(armed=(site.seq, victim))
        except InvariantViolation as exc:
            return case(VIOLATION, f"{exc.invariant}: {exc}")
        except Exception as exc:  # noqa: BLE001 — anything loose is a bug
            return case(VIOLATION, f"unexpected {type(exc).__name__}: {exc}")

        if injector.fired is None:
            return case(
                VIOLATION,
                "armed crash point was never reached (protocol trace "
                "is not deterministic)",
            )
        return case(*self.scenario.classify(result, reference))

    def enumerate(self) -> ChaosReport:
        """Exhaustive: one armed run per distinct (crash point, victim)."""
        sites = self.record_sites()
        report = ChaosReport(self.scenario.name, sites_announced=len(sites))
        seen = set()
        for site in sites:
            if site.key in seen:
                continue  # same step + same participants already covered
            seen.add(site.key)
            report.sites_enumerated += 1
            for victim in site.victims:
                report.cases.append(self.run_case(site, victim))
        return report

    def soak(self, iterations: int, seed: int = 1234) -> ChaosReport:
        """Seeded random (site, victim) picks over the recorded trace."""
        sites = self.record_sites()
        report = ChaosReport(self.scenario.name, sites_announced=len(sites))
        report.sites_enumerated = len({s.key for s in sites})
        if not sites:
            return report
        stream = DeterministicRng(seed).stream(self.scenario.soak_stream)
        for _ in range(iterations):
            site = sites[stream.randrange(len(sites))]
            victims = site.victims
            victim = victims[stream.randrange(len(victims))]
            report.cases.append(self.run_case(site, victim))
        return report


def run_chaos_suite(
    scenarios: List,
    soak_iterations: int = 0,
    seed: int = 1234,
) -> List[ChaosReport]:
    """Enumerate (and optionally soak) every scenario, of either plane."""
    reports = []
    for scenario in scenarios:
        harness = ChaosHarness(scenario)
        report = harness.enumerate()
        if soak_iterations > 0:
            soaked = harness.soak(soak_iterations, seed=seed)
            report.cases.extend(soaked.cases)
        reports.append(report)
    return reports


# ------------------------------------------------------------ kernel plane


@dataclass(frozen=True)
class ChaosScenario:
    """One workload + migration schedule to enumerate kernel crashes over."""

    name: str
    binary_factory: Callable  # () -> MultiIsaBinary
    start: str = "x86-server"
    migrate_at: Optional[int] = 2  # migrate at the Nth migration point
    argv: Tuple[float, ...] = ()
    dsm_backup: bool = False  # backup-home dirty-page replication ablation

    @property
    def soak_stream(self) -> str:
        return f"chaos.soak.{self.name}"

    def prepare(self):
        """One build serves every run: the loader gives each process a
        fresh address space, so the binary itself is immutable."""
        return self.binary_factory()

    def run(self, binary, chaos: bool, armed: Optional[Tuple[int, str]]):
        """One engine run; returns ((system, process), injector)."""
        system = boot_testbed()
        system.dsm_backup = self.dsm_backup
        injector = None
        if chaos:
            injector = CrashInjector(system.crash_kernel, armed)
            system.messaging.chaos = injector
        process = system.exec_process(binary, self.start, argv=list(self.argv))
        hooks = EngineHooks()
        hits = [0]

        def on_point(thread, fn, point_id, instrs):
            hits[0] += 1
            if self.migrate_at is not None and hits[0] == self.migrate_at:
                others = [
                    m for m in system.machine_order if m != thread.machine_name
                ]
                system.request_migration(process, others[0])

        hooks.on_migration_point = on_point
        ExecutionEngine(system, process, hooks).run()
        return (system, process), injector

    @staticmethod
    def signature(result) -> Tuple:
        """The oracle: the process's output and exit code."""
        _, process = result
        return (list(process.output), process.exit_code)

    def classify(self, result, reference) -> Tuple[str, str]:
        """Audit one armed run, then compare it with the oracle."""
        system, process = result
        detail = _audit(system, process)
        if detail is not None:
            return VIOLATION, detail
        if process.failure is not None:
            return FAILED_LOUD, process.failure
        if self.signature(result) != reference:
            ref_out, ref_code = reference
            return VIOLATION, (
                f"silent divergence: output {list(process.output)!r} "
                f"exit {process.exit_code!r} vs reference {ref_out!r} "
                f"exit {ref_code!r}"
            )
        return COMPLETED, ""


def _audit(system, process) -> Optional[str]:
    """Post-run crash-consistency + byte-conservation invariants."""
    try:
        validate.check_crash_consistency(system, [process])
    except InvariantViolation as exc:
        return f"{exc.invariant}: {exc}"
    wire = ordered_sum(system.messaging.bytes_by_kind.values())
    recorded = system.interconnect.bytes_sent
    if wire != recorded:
        return (
            f"byte conservation: interconnect recorded {recorded} B "
            f"but message kinds account for {wire} B"
        )
    return None


def registry_scenario(
    workload: str,
    cls: str = "A",
    threads: int = 2,
    scale: float = 0.01,
    migrate_at: Optional[int] = 2,
    dsm_backup: bool = False,
) -> ChaosScenario:
    """A scenario over a registry workload at a small, CI-sized scale."""
    from repro.compiler import Toolchain
    from repro.compiler.migration_points import scaled_target_gap
    from repro.workloads import build_workload

    def factory():
        toolchain = Toolchain(target_gap=scaled_target_gap(scale))
        return toolchain.build(build_workload(workload, cls, threads, scale))

    return ChaosScenario(
        name=f"{workload}.{cls}x{threads}",
        binary_factory=factory,
        migrate_at=migrate_at,
        dsm_backup=dsm_backup,
    )


# ----------------------------------------------------------- serving plane
#
# Serving imports stay inside the methods: ``repro.serving`` imports this
# package for the retry machinery, so importing it at module top would be
# a cycle.


@dataclass(frozen=True)
class ServingChaosScenario:
    """One (traffic shape, policy) serving run to enumerate crashes over."""

    name: str
    shape: str = "flash-crowd"
    policy: str = "queue-reactive"
    requests: int = 1200
    horizon_s: float = 3.0
    seed: int = 7
    #: Attach the resilience layer (retries/shedding) to armed runs.
    resilient: bool = False

    @property
    def soak_stream(self) -> str:
        return f"chaos.serving.{self.name}"

    def prepare(self):
        """Nothing is shared: every run builds its own trace and engine."""
        return None

    def run(self, _, chaos: bool, armed: Optional[Tuple[int, str]]):
        """One engine run; returns (engine, injector)."""
        from repro.serving.engine import ServingEngine
        from repro.serving.policies import make_serving_policy
        from repro.serving.resilience import default_resilience
        from repro.serving.traffic import make_trace

        trace = make_trace(
            self.shape,
            DeterministicRng(self.seed),
            requests=self.requests,
            horizon_s=self.horizon_s,
        )
        engine = ServingEngine(
            make_serving_policy(self.policy),
            trace,
            resilience=default_resilience() if self.resilient else None,
            rng=DeterministicRng(self.seed),
        )
        injector = None
        if chaos:
            injector = CrashInjector(engine.inject_crash, armed)
            engine.chaos = injector
        engine.run()
        return engine, injector

    @staticmethod
    def signature(engine) -> Tuple:
        """The deterministic fingerprint a recording run must reproduce."""
        return (
            tuple((r.index, r.finish_s) for r in engine.completed),
            tuple(r.index for r in engine.shed),
            tuple((r.index, r.failed_reason) for r in engine.failed),
        )

    def classify(self, engine, reference) -> Tuple[str, str]:
        """Compare the completed-request set with the oracle's."""
        ref_completed_ids = {index for index, _ in reference[0]}
        completed_ids = {r.index for r in engine.completed}
        lost = sorted(
            ref_completed_ids
            - completed_ids
            - {r.index for r in engine.shed}
            - {r.index for r in engine.failed}
        )
        if lost:
            # The engine's own audit should have raised; belt and braces.
            return VIOLATION, f"requests silently dropped: {lost[:8]}"
        if completed_ids == ref_completed_ids and not engine.shed and not engine.failed:
            return COMPLETED, ""
        return FAILED_LOUD, (
            f"{len(engine.failed)} failed loudly, {len(engine.shed)} shed "
            f"(all accounted; {len(completed_ids)} completed)"
        )


def serving_scenarios() -> List[ServingChaosScenario]:
    """The default serving chaos matrix: bare engine and resilient."""
    return [
        ServingChaosScenario(name="serve.flash.qr"),
        ServingChaosScenario(name="serve.flash.qr.res", resilient=True),
        ServingChaosScenario(
            name="serve.steady.la", shape="steady", policy="latency-aware"
        ),
    ]
