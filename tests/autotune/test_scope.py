"""The build scope of an autotune call: exact, and gone with the call."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro import scope
from repro.autotune import AutotuneError, candidate_config, run_autotune
from repro.backends import DEFAULT_BACKEND
from repro.compiler.codegen import lower_kernel
from repro.compiler.program import compile_kernels
from repro.compiler.vectorizer import vectorize_kernel
from repro.experiments.config import RunConfig
from repro.experiments.executor import build_miniapp, simulate_to_dict
from repro.faults.injector import PASS_FAULT_MUTATORS
from repro.faults.plan import PASS_FAULT_RUNGS
from repro.validation.probe import Probe

#: the CI autotune configuration (``repro autotune --preset tiny``).
TINY = dict(machine="riscv_vec", vector_size=240, profile="smoke", seed=0)

#: a cheaper one, for the lifetime tests.
SMALL = dict(machine="riscv_vec", vector_size=80, profile="smoke", seed=0)


def marker():
    """One object per open scope; a fresh one each call outside any."""
    return scope.shared("test-marker", None, object)


def no_scope_open():
    return marker() is not marker()


@pytest.fixture
def opened(monkeypatch):
    """The memos of every scope ``run_autotune`` opens, in order."""
    scopes = []
    build_scope = scope.build_scope

    @contextmanager
    def recording():
        with build_scope() as memos:
            scopes.append(memos)
            yield memos

    monkeypatch.setattr("repro.autotune.tuner.build_scope", recording)
    return scopes


def test_scoped_candidates_equal_cold_builds(opened, tmp_path):
    """Every timed candidate's counters equal a cold run's made outside
    any scope, and every kernel the scope compiled equals a cold
    compile of the same kernel."""
    payloads = {}

    def worker(cfg):
        payloads[cfg.key()] = simulate_to_dict(cfg)
        return payloads[cfg.key()]

    rep = run_autotune(
        (4, 4, 4), cache_dir=tmp_path, use_disk=False, worker=worker, **TINY
    )
    assert no_scope_open()
    timed = rep.timed()
    assert len(payloads) == len(timed) > 1
    for cand in timed:
        cfg = candidate_config(
            cand.schedule,
            machine=rep.machine,
            vector_size=rep.vector_size,
            mesh_dims=rep.mesh_dims,
            seed=rep.seed,
            backend=rep.backend,
        )
        assert payloads[cfg.key()] == simulate_to_dict(cfg)

    (tuned,) = opened
    assert set(tuned["mesh"]) == {(4, 4, 4), Probe().mesh_dims}
    served = tuned["compiled"]
    assert served
    for (kernel, flags), (remarks, compiled) in served.items():
        vec = vectorize_kernel(kernel, flags)
        assert remarks == tuple(vec.remarks)
        assert compiled == lower_kernel(vec.kernel, flags)


def test_scope_dies_with_the_call(tmp_path):
    """One scope per call, open while it runs and gone after it returns
    or raises; outside it, two builds share no kernel context."""
    seen = []

    def worker(cfg):
        seen.append(marker())
        return simulate_to_dict(cfg)

    run_autotune(
        (3, 2, 2), cache_dir=tmp_path, use_disk=False, worker=worker, **SMALL
    )
    first = seen[0]
    assert len(seen) > 1 and all(s is first for s in seen)
    assert no_scope_open()

    def broken(cfg):
        seen.append(marker())
        raise RuntimeError("injected")

    with pytest.raises(AutotuneError):
        run_autotune(
            (3, 2, 2),
            cache_dir=tmp_path,
            use_disk=False,
            worker=broken,
            **SMALL,
        )
    assert seen[-1] is seen[-2] and seen[-1] is not first
    assert no_scope_open()

    cfg = candidate_config(
        (),
        machine=SMALL["machine"],
        vector_size=SMALL["vector_size"],
        mesh_dims=(3, 2, 2),
        seed=0,
        backend=DEFAULT_BACKEND,
    )
    assert build_miniapp(cfg).context is not build_miniapp(cfg).context


@pytest.mark.parametrize("kind", sorted(PASS_FAULT_MUTATORS))
def test_pass_fault_builds_never_reach_honest_ones(kind):
    """A mis-legalized kernel list compiled in a scope is keyed by its
    own IR: an honest build in the same scope, before or after it, gets
    what a cold build gets."""
    cfg = RunConfig(
        opt=PASS_FAULT_RUNGS[kind], vector_size=16, mesh_dims=(3, 2, 2)
    )
    cold = build_miniapp(cfg)
    mutate = PASS_FAULT_MUTATORS[kind]
    with scope.build_scope():
        mutated = compile_kernels(mutate(list(cold.kernels)), cold.flags)
        honest = build_miniapp(cfg)
        again = compile_kernels(mutate(list(honest.kernels)), honest.flags)
        last = build_miniapp(cfg)
    assert mutated.compiled != cold.compiled
    assert again.compiled == mutated.compiled
    assert honest.compiled == cold.compiled
    assert last.compiled == cold.compiled


def test_shared_system_is_read_only():
    """Two probes of one scope and field seed share one assembled
    system, equal to a cold one, and writing to it raises."""
    seeded = Probe(vector_size=16, field_seed=1)
    cold, cold_b = Probe(vector_size=16).build_app().build_solver()
    _, cold_seeded_b = seeded.build_app().build_solver()
    with scope.build_scope():
        workload, b = Probe(vector_size=16).build_app().build_solver()
        other = Probe(vector_size=16, passes=("const-trip-count",))
        again, again_b = other.build_app().build_solver()
        _, seeded_b = seeded.build_app().build_solver()
    assert again.amatr is workload.amatr and again_b is b
    assert np.array_equal(workload.amatr, cold.amatr)
    assert np.array_equal(b, cold_b)
    assert np.array_equal(seeded_b, cold_seeded_b)
    assert not np.array_equal(seeded_b, b)
    for arr in (workload.amatr, b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
