"""The full mesh's standard-sweep payloads against the committed ledger.

``tests/fixtures/full_mesh_digests.json`` records the ``__digest__`` of
each of the 50 payloads of ``ExecutionPlan.standard(FULL_MESH)``, keyed
by its run-cache file name.  Runs of 32-480 chunks are where the cache
levels replay recurring kernels' decisions most, so these digests pin
the simulator on the inputs the paper's claims rest on.  The claims
tests leave all but the ``-solve`` config in the session's run cache;
this one runs the whole plan through it and reads every full-mesh
payload there back.
"""

import json
from pathlib import Path

from repro.experiments.config import FULL_MESH
from repro.experiments.executor import MODEL_VERSION, ExecutionPlan

LEDGER = (Path(__file__).resolve().parents[1] / "tests" / "fixtures"
          / "full_mesh_digests.json")


def test_full_mesh_payloads_match_the_ledger(session):
    ledger = json.loads(LEDGER.read_text())
    assert ledger["model_version"] == MODEL_VERSION, (
        f"the ledger is for model version {ledger['model_version']}, "
        f"the code is {MODEL_VERSION}: regenerate it")
    session.run_many(ExecutionPlan.standard(FULL_MESH))
    mesh = "mesh{}x{}x{}".format(*FULL_MESH)
    got = {p.name: json.loads(p.read_text())["__digest__"]
           for p in session.cache_dir.glob(
               f"v{MODEL_VERSION}-*-{mesh}-*.json")}
    assert got == ledger["digests"]
