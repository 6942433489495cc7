"""Tests of the machine model."""

from contextlib import contextmanager
from typing import Iterable, Iterator
from unittest import mock

import numpy as np

from repro.machine import cache as cache_mod
from repro.machine.cache import (
    Lines,
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
)


def address_lines(hierarchy: MemoryHierarchy,
                  streams: Iterable[np.ndarray]) -> Iterator[Lines]:
    """Streams of byte addresses as ``hierarchy.access`` takes them: one
    :class:`Lines` per stream, its consecutive-distinct L1 lines and its
    element count."""
    line_bytes = hierarchy.params.l1.line_bytes
    for addrs in streams:
        addrs = np.asarray(addrs, dtype=np.int64)
        yield Lines(dedup_consecutive(addresses_to_lines(addrs, line_bytes)),
                    int(addrs.size))


def charge_tuples(charges) -> Iterator[tuple[float, int, int, int]]:
    """One ``(penalty, l1_misses, l2_misses, elements)`` tuple of Python
    numbers per stream of a hierarchy's ``Charges``, in order: how the
    oracles compare them, and how the per-chunk walk charges them."""
    return zip(*(a.tolist() for a in (charges.penalty, charges.l1_misses,
                                      charges.l2_misses, charges.elements)))


@contextmanager
def recurring_paths() -> Iterator[set[tuple[str, str]]]:
    """Inside, collect each ``(level name, path)`` a recurring item a
    level decides alone takes: ``"full"`` (every set replayed),
    ``"partial"`` (some sets decided anew) or ``"anew"`` (nothing to
    replay)."""
    seen: set[tuple[str, str]] = set()
    recur = cache_mod.Cache._recur

    def spy(cache, item, records):
        recorded = not item.renew and item.key in records
        miss, replayed = recur(cache, item, records)
        seen.add((cache.params.name, "full" if replayed
                  else "partial" if recorded else "anew"))
        return miss, replayed

    with mock.patch.object(cache_mod.Cache, "_recur", spy):
        yield seen
