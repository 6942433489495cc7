"""Shared fixture of the paper-claims suite.

Every table and figure of the paper is asserted on the full 7680-element
mesh; the bounds hold there (Table 6's phase-1 R² misses its 0.75 bound
on the 960-element quick mesh).  All artifacts project the same ~50
simulated runs, which the session runs once, one worker per CPU, and
memoizes in memory and in ``.repro_cache/`` under the working
directory.  From an empty cache the suite takes 38-60 s on a 2-vCPU
host; a warm cache re-renders it in seconds.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.experiments.config import FULL_MESH
from repro.experiments.executor import default_jobs


@pytest.fixture(scope="session")
def session() -> Session:
    return Session(mesh_dims=FULL_MESH, verbose=True, jobs=default_jobs())
