"""Tests of the observability layer."""

from repro.obs.chrome import PID_SIM


def phase_span_names(events: list[dict]) -> list[str]:
    """Names of the SIM-domain phase spans (pid 1, tid 1) in an exported
    Chrome event list."""
    return [e["name"] for e in events
            if e.get("ph") == "X" and e.get("pid") == PID_SIM
            and e.get("tid") == 1]
