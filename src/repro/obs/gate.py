"""Per-phase cycle gate over ``repro bench`` reports.

``repro bench`` stamps every run's per-phase cycle counts into its JSON
report; this module checks a committed baseline (``BENCH_report.json``)
before anything is simulated, then lists every phase whose cycle count
differs from it.  The timing model is deterministic, so the comparison
is exact: *any* difference is a model change, and a PR that changes the
model re-records the baseline and says why -- the same role the paper's
per-phase cycle tables play in the co-design loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from repro.metrics.counters import RunCounters


@dataclass(frozen=True)
class Breach:
    """One per-phase cycle count that differs from the baseline's; the
    side that lacks the phase holds ``None``."""

    key: str          #: run cache key
    phase: int
    baseline: Optional[float]
    current: Optional[float]

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        where = f"{self.key} phase {self.phase}"
        if self.baseline is None:
            return f"{where}: not in the baseline ({self.current!r} cycles)"
        if self.current is None:
            return f"{where}: missing (baseline {self.baseline!r} cycles)"
        direction = "regression" if self.current > self.baseline else "speed-up"
        return (f"{where}: {self.baseline!r} -> {self.current!r} cycles "
                f"({self.ratio:.6f}x, {direction})")


def phase_cycles_payload(runs: Mapping[str, RunCounters]) -> dict:
    """The ``phase_cycles`` section of a bench report:
    ``{run key: {phase id: cycles_total}}``, JSON-ready."""
    return {
        key: {str(pid): run.phases[pid].cycles_total
              for pid in run.phase_ids()}
        for key, run in sorted(runs.items())
    }


def load_baseline(path: str | Path, mesh: Sequence[int],
                  keys: Iterable[str]) -> dict:
    """The ``phase_cycles`` section of the bench report at *path*, for a
    plan on *mesh* whose runs have the cache keys *keys*.

    Raises ``ValueError`` unless the report parses, has a
    ``phase_cycles`` section, was recorded on *mesh* and holds exactly
    *keys*: a gate over another plan's runs would compare fewer runs
    than it reports, or none.
    """
    path = Path(path)
    try:
        baseline = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"baseline {path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from None
    sections = (baseline.get("phase_cycles")
                if isinstance(baseline, dict) else None)
    if not (isinstance(sections, dict)
            and all(isinstance(s, dict) for s in sections.values())):
        raise ValueError(
            f"baseline {path} has no phase_cycles section "
            f"(regenerate it with a current 'repro bench')")
    if baseline.get("mesh") != list(mesh):
        raise ValueError(
            f"baseline mesh {baseline.get('mesh')} != the plan's mesh "
            f"{list(mesh)}: re-run bench with --mesh matching the baseline")
    keys = set(keys)
    if set(sections) != keys:
        raise ValueError(
            f"baseline {path} holds {len(set(sections) - keys)} run(s) the "
            f"plan does not and lacks {len(keys - set(sections))} of its "
            f"{len(keys)}: re-run bench with --profile matching the baseline")
    return sections


def compare_phase_cycles(current: Mapping, baseline: Mapping) -> list[Breach]:
    """Every per-phase cycle count in which two ``phase_cycles`` sections
    differ, in run-key and phase order.

    Exact: a count that moved in either direction is a breach, and so is
    a phase (or a whole run) present on one side only -- phases must not
    appear or vanish silently.
    """
    breaches: list[Breach] = []
    for key in sorted(set(current) | set(baseline)):
        cur, base = current.get(key, {}), baseline.get(key, {})
        for pid in sorted(set(cur) | set(base), key=int):
            if cur.get(pid) != base.get(pid):
                breaches.append(Breach(key=key, phase=int(pid),
                                       baseline=base.get(pid),
                                       current=cur.get(pid)))
    return breaches
