"""Per-phase golden output digests: the cross-rung semantic fingerprint.

Every optimization rung is a pure performance transformation, so the
executed outputs of each phase on a fixed probe configuration are
bit-identical across the whole ladder — scalar through vec1 produce the
same bytes phase by phase (the legal passes only restructure loops whose
iterations are independent, and iteration order within a phase's
accumulates is preserved).  :func:`phase_output_digests` turns that into
a comparable fingerprint: one SHA-256 per phase over the phase's output
arrays (:data:`repro.cfd.reference.PHASE_OUTPUTS`), accumulated chunk by
chunk on the golden probe mesh -- through the one semantic chunk loop
(:func:`repro.cfd.kernel_context.run_chunked`) for the assembly phases
1-8 and the solver phases 9-12 alike.

This is the invariant that catches the pass faults the counter checks
cannot: a mis-legalized interchange or fission conserves FLOPs by
construction (same arithmetic, wrong order/guard), so the FLOP-ladder
check stays green — but the first phase whose semantics changed diverges
from the majority digest, pinning both the struck run and the phase
(see :func:`repro.validation.invariants.check_phase_digest_ladder`).

Execution goes through a registered backend (:mod:`repro.backends`);
the digest is *backend-invariant* by construction — the vectorized
``"numpy"`` default is byte-identical to the ``"interpreter"`` oracle,
and ``tests/backends/test_equivalence_fixture.py`` freezes that claim.
The digest is a pure function of ``(kernels, field_seed)`` on the fixed
probe; notably it does **not** depend on the run's own mesh or
VECTOR_SIZE (different probe vector sizes pad differently and are *not*
comparable, which is why the probe size is pinned).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.cfd.kernel_context import run_chunked
from repro.cfd.reference import PHASE_OUTPUTS
from repro.validation.golden import MutateHook
from repro.validation.probe import Probe, resolve_probe


def _digest(context, kernels: list, data: dict[str, np.ndarray],
            backend: str) -> dict[int, str]:
    """Run *kernels* chunk by chunk on *data*, hashing every phase's
    output arrays."""
    hashers = {kern.phase: hashlib.sha256() for kern in kernels}
    for _, inst, phase in run_chunked(context, kernels, data, backend):
        for name in PHASE_OUTPUTS[phase]:
            arr = np.ascontiguousarray(
                np.asarray(inst.data(name), dtype=np.float64))
            hashers[phase].update(arr.tobytes())
    return {phase: h.hexdigest() for phase, h in sorted(hashers.items())}


#: the app of the last probe whose honest assembly ladder ran: that
#: probe's honest solver ladder, run next, takes it instead of building
#: its own (:func:`~repro.autotune.tuner.validate_schedule` runs a
#: probe's two ladders back to back).  Both only read the app.
_handoff: dict[Probe, object] = {}


def _compute_digests(probe: Probe,
                     mutate: Optional[MutateHook]) -> dict[int, str]:
    app = probe.build_app()
    if mutate is None:
        _handoff.clear()
        _handoff[probe] = app
    kernels = list(app.kernels)
    if mutate is not None:
        kernels = mutate(kernels)
    return _digest(app.context, kernels, app.assembly_data(), probe.backend)


@lru_cache(maxsize=64)
def _honest_digests(probe: Probe) -> tuple[tuple[int, str], ...]:
    """Memoized honest-pipeline digests, keyed by the (frozen, hashable)
    probe -- a chaos campaign fingerprints the same rungs many times
    over."""
    return tuple(sorted(_compute_digests(probe, None).items()))


def phase_output_digests(probe: "str | Probe" = "vanilla", /, *,
                         mutate: Optional[MutateHook] = None
                         ) -> dict[int, str]:
    """SHA-256 fingerprint of every phase's executed outputs.

    Takes the same positional :class:`Probe` (or bare rung string) as
    ``golden_check``; honest digests are identical whichever backend
    the probe names.

    Runs the (optionally ``mutate``-tampered) kernels of one rung on the
    golden probe, hashing each phase's output arrays across all chunks.
    Honest rungs all return the same digests; a tampered pipeline
    diverges at the first semantically-changed phase.
    """
    spec = resolve_probe(probe)
    if mutate is None:
        return dict(_honest_digests(spec))
    return _compute_digests(spec, mutate)


# ---------------------------------------------------------------------------
# the solver path (phases 9-12)
# ---------------------------------------------------------------------------


def _compute_solver_digests(probe: Probe, mutate: Optional[MutateHook],
                            workload=None) -> dict[int, str]:
    from repro.cfd.solver_phases import seeded_solver_inputs

    if workload is None:
        app = _handoff.pop(probe, None) if mutate is None else None
        if app is None:
            app = probe.build_app()
        workload, _ = app.build_solver()
    kernels = sorted(workload.kernels, key=lambda k: k.phase)
    if mutate is not None:
        kernels = mutate(list(kernels))
    ctx = workload.context
    return _digest(ctx, kernels, seeded_solver_inputs(ctx, probe.field_seed),
                   probe.backend)


@lru_cache(maxsize=64)
def _honest_solver_digests(probe: Probe) -> tuple[tuple[int, str], ...]:
    return tuple(sorted(_compute_solver_digests(probe, None).items()))


def solver_phase_digests(probe: "str | Probe" = "vanilla", /, *,
                         mutate: Optional[MutateHook] = None,
                         workload=None) -> dict[int, str]:
    """SHA-256 fingerprint of every solver phase's executed outputs.

    The solver twin of :func:`phase_output_digests`: the compiled SpMV /
    dot / axpy / Jacobi-apply kernels (phases 9-12) run chunk by chunk
    on seeded vectors over the probe's assembled (diagonal-shifted)
    matrix, hashing each phase's output arrays
    (:data:`repro.cfd.reference.PHASE_OUTPUTS`).  Honest
    rungs and honest backends all return the same digests; a tampered
    kernel list (``mutate``) or a fault-injected workload (``workload=``,
    e.g. a torn ELL gather table) diverges at the struck phase --
    FLOP-conserving faults included, exactly like the assembly ladder.
    """
    spec = resolve_probe(probe)
    if mutate is None and workload is None:
        return dict(_honest_solver_digests(spec))
    return _compute_solver_digests(spec, mutate, workload=workload)
