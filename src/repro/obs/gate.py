"""Performance-regression gate over per-phase cycle counts.

``repro bench`` stamps every run's per-phase cycle counts into its JSON
report; this module diffs a fresh report against a committed baseline
(``BENCH_report.json``) and reports every phase whose cycle count moved
by more than a threshold.  Because the timing model is deterministic,
*any* drift is a model change: the gate is how future perf PRs prove a
speed-up (or get caught regressing one) -- the same role the paper's
per-phase cycle tables play in the co-design loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.metrics.counters import RunCounters

#: default relative tolerance: a phase moving >= 10% fails the gate.
DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class Breach:
    """One per-phase cycle count outside the gate's tolerance."""

    key: str          #: run cache key
    phase: int
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        direction = "regression" if self.current > self.baseline else "speed-up"
        return (f"{self.key} phase {self.phase}: {self.baseline:,.0f} -> "
                f"{self.current:,.0f} cycles ({self.ratio:.3f}x, {direction})")


def check_threshold(threshold: float) -> float:
    """*threshold*, if it is a finite number ``>= 0``; else
    ``ValueError``."""
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold {threshold!r} is not a finite number "
                         ">= 0")
    return threshold


def phase_cycles_payload(runs: Mapping[str, RunCounters]) -> dict:
    """The ``phase_cycles`` section of a bench report:
    ``{run key: {phase id: cycles_total}}``, JSON-ready."""
    return {
        key: {str(pid): run.phases[pid].cycles_total
              for pid in run.phase_ids()}
        for key, run in sorted(runs.items())
    }


def compare_phase_cycles(current: Mapping, baseline: Mapping,
                         threshold: float = DEFAULT_THRESHOLD) -> list[Breach]:
    """Diff two ``phase_cycles`` sections; returns the breaches.

    Only keys present in both reports are compared (a baseline recorded
    on a different profile simply gates fewer runs); a phase present on
    one side only is a breach -- phases must not appear or vanish
    silently.  A *threshold* that is not a finite number ``>= 0`` raises
    ``ValueError``: NaN or infinity would pass any drift, and a negative
    one would fail unchanged phases.
    """
    check_threshold(threshold)
    breaches: list[Breach] = []
    for key in sorted(set(current) & set(baseline)):
        cur, base = current[key], baseline[key]
        for pid in sorted(set(cur) | set(base), key=int):
            c = float(cur.get(pid, 0.0))
            b = float(base.get(pid, 0.0))
            if pid not in cur or pid not in base:
                breaches.append(Breach(key=key, phase=int(pid),
                                       baseline=b, current=c))
                continue
            if b == 0.0:
                if c != 0.0:
                    breaches.append(Breach(key=key, phase=int(pid),
                                           baseline=b, current=c))
                continue
            if abs(c - b) / b > threshold:
                breaches.append(Breach(key=key, phase=int(pid),
                                       baseline=b, current=c))
    return breaches


def check_report(current: Mapping, baseline_path: str | Path,
                 threshold: float = DEFAULT_THRESHOLD) -> list[Breach]:
    """Gate a fresh bench report payload against a baseline file.

    Raises ``ValueError`` when the baseline is unusable (missing,
    malformed, no ``phase_cycles`` section, or recorded on a different
    mesh) -- a broken gate must fail loudly, not pass vacuously.
    """
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"baseline {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(baseline, dict) or "phase_cycles" not in baseline:
        raise ValueError(
            f"baseline {path} has no phase_cycles section "
            f"(regenerate it with a current 'repro bench')")
    if baseline.get("mesh") != current.get("mesh"):
        raise ValueError(
            f"baseline mesh {baseline.get('mesh')} != current mesh "
            f"{current.get('mesh')}: re-run bench with --mesh matching "
            f"the baseline")
    common = set(current["phase_cycles"]) & set(baseline["phase_cycles"])
    if not common:
        raise ValueError(
            "baseline and current reports share no run keys; nothing "
            "would be gated (profile mismatch?)")
    return compare_phase_cycles(current["phase_cycles"],
                                baseline["phase_cycles"],
                                threshold=threshold)
