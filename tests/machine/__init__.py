"""Tests of the machine model."""

from typing import Iterator


def charge_tuples(charges) -> Iterator[tuple[float, int, int, int]]:
    """One ``(penalty, l1_misses, l2_misses, elements)`` tuple of Python
    numbers per stream of a hierarchy's ``Charges``, in order: how the
    oracles compare them, and how the per-chunk walk charges them."""
    return zip(*(a.tolist() for a in (charges.penalty, charges.l1_misses,
                                      charges.l2_misses, charges.elements)))
