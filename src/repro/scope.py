"""One build scope: what the builds of one autotune call share.

An autotune call builds many mini-apps that differ only in their pass
schedule: every candidate is validated on the probe mesh and timed on
the tuned mesh, and each build would otherwise make its own mesh, CSR
pattern, kernel context, baseline IR, compiled kernels and assembled
solver system.  :func:`build_scope` opens a scope for the current
context, like :func:`repro.obs.use` installs an ambient tracer, and the
builders take what they need through :func:`shared`:

* ``"mesh"`` -- ``build_miniapp`` and ``Probe.build_app``, through
  ``cfd.mesh.scoped_box_mesh``: the mesh of their dims;
* ``"context"`` -- ``MiniApp``: the CSR pattern, ``MiniAppContext``,
  padded ``elpos`` and baseline IR of its (mesh, VECTOR_SIZE, params);
* ``"compiled"`` -- ``compile_kernels``: the vectorization remarks and
  lowered form of one transformed kernel under equal ``CompilerFlags``;
* ``"system"`` -- ``MiniApp.build_solver``: the assembled,
  diagonal-shifted system of its (context, field seed).

Every memo is exact: each value is a pure function of its key (the
``"compiled"`` key is the transformed IR itself, a frozen value), and
nothing shared is mutated afterwards (the system's arrays are
read-only).  Outside a scope :func:`shared` builds afresh every time,
so sweeps and single runs share nothing; the scope and everything it
holds go when the ``with`` block ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Hashable, Iterator, Optional, TypeVar

T = TypeVar("T")

#: the open scope's memos (kind -> key -> value), or ``None``.
_ACTIVE: ContextVar[Optional[dict]] = ContextVar("repro_build_scope",
                                                 default=None)
_MISSING = object()


@contextmanager
def build_scope() -> Iterator[dict]:
    """Open a fresh scope for this context, yielding its memos (kind ->
    key -> value); it is gone on exit, however the block ends."""
    memos: dict[str, dict] = {}
    token = _ACTIVE.set(memos)
    try:
        yield memos
    finally:
        _ACTIVE.reset(token)


def shared(kind: str, key: Hashable, build: Callable[[], T]) -> T:
    """The *kind* value of *key* in the open scope, built by *build* on
    first use; outside a scope, ``build()`` every time."""
    memos = _ACTIVE.get()
    if memos is None:
        return build()
    memo = memos.setdefault(kind, {})
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = build()
    return value
