"""Tests of the machine model."""

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.machine import cache as cache_mod


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
