"""Tests for the Figure-1 instruction hierarchy."""

from hypothesis import given, strategies as st

from repro.isa.hierarchy import (
    HierarchyCounts,
    LEAF_BUCKETS,
    classify,
)
from repro.isa.instructions import OPCODES, VFMADD, VLE, VMV, VSETVL


def test_classify_leaves():
    assert classify(VSETVL) == "vector_config"
    assert classify(VFMADD) == "arithmetic"
    assert classify(VLE) == "memory"
    assert classify(VMV) == "control_lane"


def test_every_opcode_classifies_to_a_leaf():
    for spec in OPCODES.values():
        assert classify(spec) in LEAF_BUCKETS


def test_vsetvl_not_counted_in_iv():
    """Vector-configuration instructions count toward i_t, not i_v."""
    assert not VSETVL.is_vector
    assert VFMADD.is_vector
    assert VMV.is_vector


def test_counts_add_and_totals():
    h = HierarchyCounts()
    h.add(VFMADD, 10)
    h.add(VLE, 5)
    h.add(VSETVL, 2)
    h.add(VMV)
    assert (h.scalar, h.vector_config, h.arithmetic, h.memory,
            h.control_lane) == (0, 2, 10, 5, 1)


_spec_list = st.lists(
    st.sampled_from(sorted(OPCODES.values(), key=lambda s: s.opcode)),
    max_size=50,
)


@given(_spec_list)
def test_total_partitions_into_buckets(specs):
    h = HierarchyCounts()
    for s in specs:
        h.add(s)
    assert sum(getattr(h, bucket) for bucket in LEAF_BUCKETS) == len(specs)
