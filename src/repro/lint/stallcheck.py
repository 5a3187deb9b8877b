"""Dynamic liveness sanitizer (lint Tier W's runtime complement).

The static Tier W rules flag wait-graph *patterns* (unguarded waits,
inconsistent lock orders, zero-delay loops); this module watches the
real thing.  A :class:`StallMonitor` hooks the kernel via the
``_STALL_MONITOR`` globals in :mod:`repro.sim.core` and
:mod:`repro.sim.resources`, keeping weak-reference registries of every
process, process group, resource and store the run creates — each
tagged with the source line that created it.  After the scenario runs,
the whole testbed is torn down (``engine.shutdown()``) and the monitor
checks that nothing survived:

* **deadlock** — the event heap drained while registered processes are
  still alive.  The report dumps the runtime *wait graph*: each stuck
  process's name, the source line its generator is suspended at, and a
  description of the event it waits on (which resource/store, how full).
* **livelock** — more than ``livelock_threshold`` events processed at a
  single simulated instant.  A zero-delay self-rescheduling loop makes
  time stop advancing; the monitor raises :class:`StallError` from
  inside ``env.step`` with the offending instant.
* **residue** — after teardown: still-granted resource slots, requests
  still queued, stores with live putters or waiting getters, process
  groups with live members, and WebSocket subscriptions still
  registered on any node.
* **backlog** — the high-water mark of every store (by creation site)
  is diffed against the scenario's entry in the pinned budget file
  (``STALL_BUDGET.json`` at the repo root, read and pinned by
  :mod:`repro.lint.harness`), so an unbounded queue growth regression
  fails tier-1 the same way a lint finding does.

The teardown path is *only* exercised here: the normal experiment
runner never calls ``engine.shutdown()``, keeping its event accounting
byte-identical to the pinned golden run.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lint.alloccheck import _short_path

#: Absolute slack added to the budget's relative tolerance when diffing
#: high-water marks, so tiny pinned values (1-2 items) don't false-fail.
ABSOLUTE_SLACK = 2

#: Stores whose creation site is *not* in the budget fail only past this
#: floor — a brand-new queue is fine until it grows suspiciously deep.
UNBUDGETED_FLOOR = 256

#: Default number of same-instant events treated as a livelock.  The
#: busiest pinned scenario (fig12) peaks well under 2k events at one
#: instant; a zero-delay loop blows past any finite threshold.
DEFAULT_LIVELOCK_THRESHOLD = 10_000


class StallError(Exception):
    """Raised by the monitor when simulated time stops advancing."""


def _creation_site() -> str:
    """The first stack frame outside the kernel modules, as ``path:line``."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(
            ("repro/sim/core.py", "repro/sim/resources.py", "repro/lint/stallcheck.py")
        ):
            return f"{_short_path(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class StallMonitor:
    """Weak-reference registries over every kernel object a run creates.

    Installed via :meth:`activate`; every hook is a single method call
    guarded by an ``is None`` check in the kernel, so unmonitored runs
    pay one branch per site and monitored runs stay allocation-light
    (weak references only — the monitor never keeps anything alive).
    """

    def __init__(self, livelock_threshold: int = DEFAULT_LIVELOCK_THRESHOLD):
        self.livelock_threshold = livelock_threshold
        self.processes: weakref.WeakSet = weakref.WeakSet()
        self.groups: weakref.WeakSet = weakref.WeakSet()
        self.resources: weakref.WeakSet = weakref.WeakSet()
        self.stores: weakref.WeakSet = weakref.WeakSet()
        #: kernel object -> "path:line" that created it.
        self.sites: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: store creation site -> max observed ``len(store.items)``.
        self.high_water: dict[str, int] = {}
        self.same_instant_max = 0
        self._last_when: Optional[float] = None
        self._same_instant = 0

    # -- kernel hooks (called from sim.core / sim.resources) ---------------

    def on_process(self, process) -> None:
        self.processes.add(process)
        self.sites[process] = _creation_site()

    def on_group(self, group) -> None:
        self.groups.add(group)
        self.sites[group] = _creation_site()

    def on_resource(self, resource) -> None:
        self.resources.add(resource)
        self.sites[resource] = _creation_site()

    def on_store(self, store) -> None:
        self.stores.add(store)
        self.sites[store] = _creation_site()

    def on_store_put(self, store) -> None:
        site = self.sites.get(store, "<unknown>")
        depth = len(store.items)
        # Record every put site, even at depth 0 (a waiting consumer
        # drained it synchronously) — the budget then pins the site.
        if depth > self.high_water.get(site, -1):
            self.high_water[site] = depth

    def on_step(self, when: float) -> None:
        if when == self._last_when:
            self._same_instant += 1
        else:
            self._last_when = when
            self._same_instant = 1
        if self._same_instant > self.same_instant_max:
            self.same_instant_max = self._same_instant
        if self._same_instant > self.livelock_threshold:
            raise StallError(
                f"livelock: {self._same_instant} events processed at "
                f"t={when} without time advancing (threshold "
                f"{self.livelock_threshold}); a zero-delay loop is "
                "rescheduling itself"
            )

    # -- activation ---------------------------------------------------------

    def activate(self):
        """Context manager installing this monitor into the kernel."""
        return _Activation(self)

    # -- post-run inspection ------------------------------------------------

    def live_processes(self) -> list:
        return [p for p in self.processes if p.is_alive]

    def wait_graph(self) -> list[str]:
        """One line per live process: name, suspension site, waited event."""
        lines = []
        for process in sorted(self.live_processes(), key=lambda p: p.name):
            frame = getattr(process._generator, "gi_frame", None)
            if frame is not None:
                at = f"{_short_path(frame.f_code.co_filename)}:{frame.f_lineno}"
            else:
                at = "<no frame>"
            waiting = self._describe_event(process._waiting_on)
            lines.append(
                f"{process.name or '<unnamed>'} "
                f"(spawned at {self.sites.get(process, '<unknown>')}) "
                f"suspended at {at}, waiting on {waiting}"
            )
        return lines

    def _describe_event(self, event) -> str:
        from repro.sim.core import Process, Timeout
        from repro.sim.resources import Request, StoreGet, StorePut

        if event is None:
            return "nothing (never resumed)"
        if isinstance(event, Request):
            res = event.resource
            return (
                f"Request on Resource@{self.sites.get(res, '<unknown>')} "
                f"(in use {res.count}/{res.capacity}, "
                f"queue {res.queue_length})"
            )
        if isinstance(event, StoreGet):
            store = event.store
            return (
                f"StoreGet on Store@{self.sites.get(store, '<unknown>')} "
                f"({len(store.items)} item(s) buffered)"
            )
        if isinstance(event, StorePut):
            store = event.store
            return (
                f"StorePut on full Store@{self.sites.get(store, '<unknown>')} "
                f"({len(store.items)}/{store.capacity})"
            )
        if isinstance(event, Process):
            return f"process {event.name!r} to finish"
        if isinstance(event, Timeout):
            return f"Timeout({event.delay}s)"
        return type(event).__name__

    def residue(self) -> list[str]:
        """Leak findings over every registry (call after teardown)."""
        findings = []
        for resource in self.resources:
            if resource.count > 0:
                findings.append(
                    f"Resource@{self.sites.get(resource, '<unknown>')} still "
                    f"holds {resource.count} granted slot(s) after teardown"
                )
            if resource.queue_length > 0:
                findings.append(
                    f"Resource@{self.sites.get(resource, '<unknown>')} still "
                    f"queues {resource.queue_length} ungranted request(s)"
                )
        for store in self.stores:
            putters = store._live_putters()
            if putters > 0:
                findings.append(
                    f"Store@{self.sites.get(store, '<unknown>')} still has "
                    f"{putters} blocked put(s) after teardown"
                )
            getters = sum(1 for g in store._getters if not g.cancelled)
            if getters > 0:
                findings.append(
                    f"Store@{self.sites.get(store, '<unknown>')} still has "
                    f"{getters} waiting getter(s) after teardown"
                )
        for group in self.groups:
            live = group.live
            if live:
                names = ", ".join(sorted(p.name for p in live))
                findings.append(
                    f"ProcessGroup@{self.sites.get(group, '<unknown>')} still "
                    f"owns {len(live)} live process(es): {names}"
                )
        return sorted(findings)


class _Activation:
    """Installs/uninstalls a monitor into both kernel modules."""

    def __init__(self, monitor: StallMonitor):
        self.monitor = monitor

    def __enter__(self) -> StallMonitor:
        from repro.sim import core, resources

        if core._STALL_MONITOR is not None:
            raise RuntimeError("a StallMonitor is already active")
        core._STALL_MONITOR = self.monitor
        resources._STALL_MONITOR = self.monitor
        return self.monitor

    def __exit__(self, *exc) -> None:
        from repro.sim import core, resources

        core._STALL_MONITOR = None
        resources._STALL_MONITOR = None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class StallcheckResult:
    """Outcome of one monitored scenario (or toy) run."""

    scenario: str
    seed: int
    events: int = 0
    live: int = 0
    same_instant_max: int = 0
    high_water: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    wait_lines: list[str] = field(default_factory=list)
    budget: Optional[dict] = None
    wrote_budget_to: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = (
            f"stallcheck[{self.scenario}]: {self.events} events, "
            f"{len(self.high_water)} store site(s) tracked, "
            f"same-instant peak {self.same_instant_max}"
        )
        lines = [header]
        if self.wrote_budget_to is not None:
            lines.append(f"  pinned stall budget to {self.wrote_budget_to}")
        elif self.clean:
            lines.append(
                "  OK — no deadlock, no livelock, no teardown residue, "
                "all store high-water marks within budget"
            )
        else:
            lines.append(f"  STALL — {len(self.violations)} violation(s):")
            lines += [f"    {v}" for v in self.violations]
            if self.wait_lines:
                lines.append("  runtime wait graph:")
                lines += [f"    {w}" for w in self.wait_lines]
            lines.append(
                "    see DESIGN.md §6 (how to read a stallcheck report); "
                "re-pin high-water budgets with --write-budget only "
                "after auditing the growth"
            )
        return "\n".join(lines)

    def budget_entry(self) -> dict:
        """This run's pin in the budget file's ``scenarios`` map."""
        return {
            "seed": self.seed,
            "events": self.events,
            "high_water": dict(sorted(self.high_water.items())),
        }

    def apply_budget(self, entry: dict, tolerance: float) -> None:
        """Diff the run's high-water marks against a pinned entry."""
        pinned_marks = entry.get("high_water", {})
        for site in sorted(set(pinned_marks) - set(self.high_water)):
            self.violations.append(
                f"pinned store site {site} was never observed in this run "
                "(the code moved or the store is gone); re-pin with "
                "--write-budget after auditing"
            )
        for site, depth in sorted(self.high_water.items()):
            if site in pinned_marks:
                limit = int(pinned_marks[site] * (1.0 + tolerance)) + ABSOLUTE_SLACK
                if depth > limit:
                    self.violations.append(
                        f"store backlog regression at {site}: high-water "
                        f"{depth} exceeds pinned {pinned_marks[site]} "
                        f"(+{100 * tolerance:.0f}% +{ABSOLUTE_SLACK} = {limit})"
                    )
            elif depth > UNBUDGETED_FLOOR:
                self.violations.append(
                    f"unbudgeted store at {site} reached high-water {depth} "
                    f"(> floor {UNBUDGETED_FLOOR}); pin it with "
                    "--write-budget after auditing"
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_DEADLOCK = "deadlock: event heap drained with {} process(es) still waiting"


def monitor_experiment(scenario: str, config) -> StallcheckResult:
    """Run ``config`` monitored, tear it down, report every stall."""
    from repro.errors import SimulationError
    from repro.framework.runner import _ExperimentEngine

    monitor = StallMonitor()
    result = StallcheckResult(scenario=scenario, seed=config.seed)
    stuck = None
    with monitor.activate():
        engine = _ExperimentEngine(config)
        try:
            engine.run()
        except StallError as exc:
            result.violations.append(str(exc))
        except SimulationError:
            # The heap drained under the orchestrator: a deadlock.
            result.violations.append(
                _DEADLOCK.format(len(monitor.live_processes()))
            )
            result.wait_lines = monitor.wait_graph()
        else:
            engine.shutdown()
            result.violations += _subscription_residue(engine.testbed)
            stuck = (
                "teardown left {} process(es) alive "
                "(shutdown interrupt did not reach them)"
            )
        _collect(monitor, result, engine.testbed.env, stuck)
    return result


def _collect(
    monitor: StallMonitor, result: StallcheckResult, env, stuck: Optional[str]
) -> None:
    """Post-run collection shared by scenario and toy runs.

    ``stuck`` formats the count of processes still alive; it is None when
    the run already failed, since live processes and residue then only
    echo that failure.
    """
    if stuck is not None:
        live = monitor.live_processes()
        if live:
            result.violations.append(stuck.format(len(live)))
            result.wait_lines = monitor.wait_graph()
        result.violations += monitor.residue()
    result.events = env.events_processed
    result.live = len(monitor.live_processes())
    result.same_instant_max = monitor.same_instant_max
    result.high_water = dict(monitor.high_water)


def _subscription_residue(testbed) -> list[str]:
    """WebSocket subscriptions still registered after teardown."""
    findings = []
    for chain in testbed.chains:
        for host, node in sorted(chain.nodes.items()):
            count = len(node.websocket.subscriptions)
            if count:
                findings.append(
                    f"websocket {chain.chain_id}/{host} still has {count} "
                    "registered subscription(s) after teardown"
                )
    return findings


def check_toy(
    name: str,
    build: Callable,
    livelock_threshold: int = DEFAULT_LIVELOCK_THRESHOLD,
) -> StallcheckResult:
    """Run a self-contained toy under the monitor (for tests/examples).

    ``build(env)`` sets up processes on a fresh :class:`Environment`;
    the toy then runs until its heap drains.  No budget is consulted —
    toys report deadlock, livelock and residue only.
    """
    from repro.sim.core import Environment

    monitor = StallMonitor(livelock_threshold=livelock_threshold)
    result = StallcheckResult(scenario=name, seed=0)
    stuck = None
    with monitor.activate():
        env = Environment()
        build(env)
        try:
            env.run()
        except StallError as exc:
            result.violations.append(str(exc))
        else:
            stuck = _DEADLOCK
        _collect(monitor, result, env, stuck)
    return result
