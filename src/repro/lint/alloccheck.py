"""Dynamic allocation sanitizer (lint Tier P's runtime complement).

The static Tier P rules flag *patterns* that allocate per event; this
module measures the real thing: run a scenario under :mod:`tracemalloc`
and report how many traced allocations are still live at the end of the
run, normalised per simulated event, with the top allocating call sites.
The normalised figure is diffed against the scenario's entry in a pinned
budget file (``ALLOC_BUDGET.json`` at the repo root, read and pinned by
:mod:`repro.lint.harness`) so an allocation regression —
a dropped ``__slots__``, a new per-event closure, an unbounded cache on
a hot path — fails tier-1 the same way a lint finding does.

Methodology
-----------

``tracemalloc`` traces every allocation made *after* it starts, so the
measurement covers exactly one scenario execution: testbed construction,
the simulated run, and the report build.  A ``gc.collect()`` before the
final snapshot makes the live set deterministic (cyclic garbage is
collected at a GC-chosen instant otherwise).  Two consequences worth
knowing when reading a report:

* The metric counts *retained* blocks (live at snapshot time), not
  cumulative allocations — per-event garbage that was already freed is
  visible only through the ``peak_kb`` figure.
* Warm ``functools.lru_cache`` memos from earlier runs in the same
  process mean *fewer* new allocations, never more, so a budget pinned
  from a cold process is an upper bound and the check cannot false-fail
  from cache warmth.

The budget gates only ``blocks_per_event`` (with a relative tolerance
recorded in the file); event counts and top sites are informational.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

#: How many call sites a report spells out.
TOP_SITES = 10


@dataclass(frozen=True)
class AllocSite:
    """One call site's share of the live allocations."""

    path: str
    line: int
    count: int
    size_kb: float

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  blocks={self.count}  kb={self.size_kb:.1f}"


@dataclass
class AlloccheckResult:
    """Outcome of one scenario's allocation measurement."""

    scenario: str
    seed: int
    events: int
    total_blocks: int
    total_kb: float
    peak_kb: float
    blocks_per_event: float
    top_sites: list[AllocSite] = field(default_factory=list)
    #: Budget document the run was diffed against (None when pinning).
    budget: Optional[dict] = None
    #: Allowed blocks/event: the pinned figure plus its tolerance.
    limit: Optional[float] = None
    violations: list[str] = field(default_factory=list)
    wrote_budget_to: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = (
            f"alloccheck[{self.scenario}]: {self.events} events, "
            f"{self.total_blocks} live blocks ({self.total_kb:.0f} kB, "
            f"peak {self.peak_kb:.0f} kB) -> "
            f"{self.blocks_per_event:.2f} blocks/event"
        )
        lines = [header]
        if self.wrote_budget_to is not None:
            lines.append(f"  pinned budget to {self.wrote_budget_to}")
        elif self.clean:
            if self.limit is not None:
                lines.append(
                    f"  OK — within budget ({self.limit:.2f} blocks/event "
                    "allowed)"
                )
            else:
                lines.append("  OK (no budget file; nothing to diff against)")
        else:
            lines.append(f"  REGRESSION — {len(self.violations)} violation(s):")
            lines += [f"    {v}" for v in self.violations]
            lines.append(
                "    a regression means per-event allocation grew past the "
                "pinned budget (see DESIGN.md §6: how to read an alloccheck "
                "report); re-pin with --write-budget only after "
                "auditing the growth"
            )
        lines.append("  top call sites by live blocks:")
        lines += [f"    {site}" for site in self.top_sites]
        return "\n".join(lines)

    def budget_entry(self) -> dict:
        """This run's pin in the budget file's ``scenarios`` map."""
        return {
            "seed": self.seed,
            "events": self.events,
            "blocks_per_event": round(self.blocks_per_event, 2),
        }

    def apply_budget(self, entry: dict, tolerance: float) -> None:
        """Diff blocks/event against a pinned entry (plus ``tolerance``)."""
        try:
            pinned = float(entry["blocks_per_event"])
        except (KeyError, TypeError, ValueError):
            self.violations.append("budget entry has no usable blocks_per_event")
            return
        self.limit = pinned * (1.0 + tolerance)
        if self.blocks_per_event > self.limit:
            self.violations.append(
                f"blocks/event {self.blocks_per_event:.2f} exceeds budget "
                f"{pinned:.2f} (+{100 * tolerance:.0f}% tolerance = "
                f"{self.limit:.2f})"
            )


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(scenario: str, config) -> AlloccheckResult:
    """Run one experiment under tracemalloc and collect allocation stats."""
    from repro.framework.runner import _ExperimentEngine

    gc.collect()
    tracemalloc.start()
    try:
        engine = _ExperimentEngine(config)
        engine.run()
        events = engine.testbed.env.events_processed
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    stats = snapshot.statistics("lineno")
    total_blocks = sum(s.count for s in stats)
    total_kb = sum(s.size for s in stats) / 1024.0
    ranked = sorted(
        stats,
        key=lambda s: (
            -s.count,
            -s.size,
            s.traceback[0].filename,
            s.traceback[0].lineno,
        ),
    )
    top = [
        AllocSite(
            path=_short_path(s.traceback[0].filename),
            line=s.traceback[0].lineno,
            count=s.count,
            size_kb=s.size / 1024.0,
        )
        for s in ranked[:TOP_SITES]
    ]
    return AlloccheckResult(
        scenario=scenario,
        seed=config.seed,
        events=events,
        total_blocks=total_blocks,
        total_kb=total_kb,
        peak_kb=peak / 1024.0,
        blocks_per_event=(total_blocks / events) if events else float("inf"),
        top_sites=top,
    )


def _short_path(filename: str) -> str:
    """Shorten an absolute path to its in-repo tail where possible."""
    for marker in ("/src/", "/lib/python"):
        idx = filename.rfind(marker)
        if idx >= 0:
            return filename[idx + len(marker) :]
    return filename
