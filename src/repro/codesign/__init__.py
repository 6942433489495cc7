"""The paper's co-design methodology as executable rules."""

from repro.codesign.advisor import (
    Advisor,
    Finding,
    Severity,
    render_findings,
)
from repro.codesign.loop import CodesignResult, CodesignStep, run_codesign_loop

__all__ = [
    "Advisor",
    "Finding",
    "Severity",
    "render_findings",
    "CodesignResult",
    "CodesignStep",
    "run_codesign_loop",
]
