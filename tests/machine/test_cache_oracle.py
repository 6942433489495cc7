"""Cross-validation of the cache simulator against independent,
obviously-correct reference implementations.

The production cache (`repro.machine.cache.Cache`) decides a whole batch
of accesses at once from LRU stack distances; two oracles decide one
line at a time: a textbook OrderedDict LRU, and the per-line list loop
the simulator used before it was vectorized (kept here verbatim).  They
must agree on miss counts and miss *positions* for arbitrary access
streams, with state carried across calls and across the simulator's
internal batches.
"""

import dataclasses
from collections import OrderedDict
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.ir import Affine, Array, Indirect, Ref
from repro.compiler.program import (
    AccessDesc,
    CompiledKernel,
    KernelInstance,
    ScalarBlock,
)
from repro.isa.instructions import ScalarOp
from repro.machine import cache as cache_mod
from repro.machine.cache import (
    Cache,
    Lines,
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
)
from repro.machine.cpu import RunStreams
from repro.machine.machines import MN4_AVX512, RISCV_VEC, SX_AURORA
from repro.machine.params import CacheParams, MemoryParams

from . import address_lines, charge_tuples, recurring_paths


class OracleLRU:
    """Textbook set-associative LRU cache."""

    def __init__(self, n_sets: int, assoc: int):
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line: int) -> bool:
        """Return True on miss."""
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return False
        s[line] = True
        if len(s) > self.assoc:
            s.popitem(last=False)
        return True


class ListLRU:
    """The simulator's former per-line LRU loop: a Python list per set,
    ``in`` / ``remove`` / ``append`` per line."""

    def __init__(self, params: CacheParams):
        self.params = params
        self._n_sets = params.n_sets
        self._assoc = params.assoc
        self._sets: list[list[int]] = [[] for _ in range(self._n_sets)]
        self.accesses = 0
        self.misses = 0

    def access_lines(self, lines: np.ndarray) -> np.ndarray:
        """Access a stream of line indices; return the missed lines.

        The returned array preserves stream order so it can be fed to the
        next level directly.
        """
        n_sets = self._n_sets
        assoc = self._assoc
        sets = self._sets
        missed: list[int] = []
        append = missed.append
        for line in lines.tolist():
            ways = sets[line % n_sets]
            if line in ways:
                if ways[-1] != line:  # move to MRU position
                    ways.remove(line)
                    ways.append(line)
            else:
                append(line)
                ways.append(line)
                if len(ways) > assoc:
                    del ways[0]
        self.accesses += int(lines.size)
        self.misses += len(missed)
        return np.asarray(missed, dtype=np.int64)


def reference_misses(lines, n_sets, assoc):
    oracle = OracleLRU(n_sets, assoc)
    return [line for line in lines if oracle.access(line)]


def cache_params(n_sets: int, assoc: int) -> CacheParams:
    return CacheParams("t", size_bytes=64 * assoc * n_sets, line_bytes=64,
                       assoc=assoc)


@settings(deadline=None, max_examples=100)
@given(
    lines=st.lists(st.integers(0, 127), min_size=0, max_size=400),
    assoc=st.sampled_from([1, 2, 4, 8]),
    n_sets_pow=st.integers(0, 4),
)
def test_cache_matches_oracle(lines, assoc, n_sets_pow):
    n_sets = 2 ** n_sets_pow
    cache = Cache(cache_params(n_sets, assoc))
    arr = np.asarray(lines, dtype=np.int64)
    got = arr[cache.access_lines(arr)].tolist()
    expected = reference_misses(lines, n_sets, assoc)
    assert got == expected
    assert cache.misses == len(expected)
    assert cache.accesses == len(lines)


@st.composite
def call_sequences(draw):
    """A cache shape plus several calls' line streams.  Lines come from a
    few sets (so even a 2048-set cache sees conflicts), each set offering
    from a fraction of its ways to many times more distinct lines."""
    assoc = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_sets = 2 ** draw(st.integers(0, 11))
    sets = draw(st.lists(st.integers(0, n_sets - 1), min_size=1,
                         max_size=4))
    per_set = draw(st.sampled_from(
        sorted({max(1, assoc // 2), assoc, assoc + 1, 2 * assoc,
                8 * assoc})))
    tags = draw(st.lists(st.integers(0, 1 << 24), min_size=per_set,
                         max_size=per_set, unique=True))
    pool = [t * n_sets + s for s in sets for t in tags]
    calls = draw(st.lists(st.lists(st.sampled_from(pool), max_size=300),
                          min_size=1, max_size=4))
    return n_sets, assoc, calls


def assert_matches_list_oracle(n_sets, assoc, calls):
    params = cache_params(n_sets, assoc)
    cache, oracle = Cache(params), ListLRU(params)
    for call in calls:
        arr = np.asarray(call, dtype=np.int64)
        got = arr[cache.access_lines(arr)]
        np.testing.assert_array_equal(got, oracle.access_lines(arr))
        assert (cache.accesses, cache.misses) == (oracle.accesses,
                                                  oracle.misses)


@settings(deadline=None, max_examples=150)
@given(call_sequences())
def test_cache_matches_list_oracle_across_calls(case):
    assert_matches_list_oracle(*case)


@settings(deadline=None, max_examples=60)
@given(call_sequences())
def test_cache_matches_list_oracle_across_internal_batches(case):
    """The same, with batches of 7 lines, so resident state crosses many
    batch boundaries inside one call."""
    with mock.patch.object(cache_mod, "BATCH_LINES", 7):
        assert_matches_list_oracle(*case)


@settings(deadline=None, max_examples=30)
@given(
    a=st.lists(st.integers(0, 63), min_size=1, max_size=150),
    b=st.lists(st.integers(0, 63), min_size=1, max_size=150),
)
def test_split_streams_equal_one_stream(a, b):
    """Feeding the stream in two batches is identical to one batch
    (the simulator is stateful across calls)."""
    params = CacheParams("t", size_bytes=64 * 4 * 8, line_bytes=64, assoc=4)
    one = Cache(params)
    one.access_lines(np.asarray(a + b, dtype=np.int64))
    two = Cache(params)
    two.access_lines(np.asarray(a, dtype=np.int64))
    two.access_lines(np.asarray(b, dtype=np.int64))
    assert one.misses == two.misses


# -- the hierarchy against two oracle levels fed one stream at a time ------


class OracleHierarchy:
    """Two list-LRU levels behind the simulator's former per-stream
    ``MemoryHierarchy.access``: one call per stream."""

    def __init__(self, params: MemoryParams, enabled: bool = True):
        self.params = params
        self.enabled = enabled
        self.l1 = ListLRU(params.l1)
        self.l2 = ListLRU(params.l2) if params.l2 is not None else None
        self.element_accesses = 0

    def access(self, addrs: np.ndarray) -> tuple[float, int, int]:
        addrs = np.asarray(addrs, dtype=np.int64)
        self.element_accesses += int(addrs.size)
        if not self.enabled or addrs.size == 0:
            return 0.0, 0, 0
        lines = dedup_consecutive(
            addresses_to_lines(addrs, self.params.l1.line_bytes))
        l1_missed = self.l1.access_lines(lines)
        penalty = l1_missed.size * self.params.l1.miss_penalty
        n2 = 0
        if self.l2 is not None and l1_missed.size:
            n2 = self.l2.access_lines(l1_missed).size
            penalty += n2 * self.params.l2.miss_penalty
        return penalty, int(l1_missed.size), n2


def assert_hierarchy_matches(params, calls, enabled=True):
    """*calls*: a list of kernels, each a list of address streams."""
    hier = MemoryHierarchy(params, enabled=enabled)
    oracle = OracleHierarchy(params, enabled=enabled)
    for streams in calls:
        got = list(charge_tuples(hier.access(address_lines(hier, streams))))
        want = [(*oracle.access(s), len(s)) for s in streams]
        # exact: the penalties must be the same doubles, not close ones.
        assert got == want
        assert hier.element_accesses == oracle.element_accesses
        assert (hier.l1.accesses, hier.l1.misses) == (oracle.l1.accesses,
                                                      oracle.l1.misses)
        if params.l2 is not None:
            assert (hier.l2.accesses, hier.l2.misses) == (
                oracle.l2.accesses, oracle.l2.misses)
        assert hier.check_invariants() == []


TINY = MemoryParams(
    l1=CacheParams("L1", 512, line_bytes=64, assoc=2, miss_penalty=10.0),
    l2=CacheParams("L2", 4096, line_bytes=64, assoc=4, miss_penalty=37.5),
)
TINY_L1_ONLY = MemoryParams(l1=TINY.l1)
HIERARCHIES = [TINY, TINY_L1_ONLY, RISCV_VEC.memory, MN4_AVX512.memory,
               SX_AURORA.memory]


@st.composite
def address_streams(draw):
    """Kernels of address streams: strided runs over a few arrays, like
    the code generator's, plus empty streams."""
    bases = [0, 3 << 12, 5 << 16, 7 << 20]
    run = st.tuples(st.sampled_from(bases), st.integers(0, 1 << 14),
                    st.sampled_from([8, 16, 64, 256, 4096, 65536]),
                    st.integers(0, 400))

    def stream(runs):
        parts = [base + 8 * (off // 8) + stride * np.arange(n, dtype=np.int64)
                 for base, off, stride, n in runs]
        return np.concatenate([np.zeros(0, dtype=np.int64), *parts])

    streams = st.lists(st.lists(run, max_size=3).map(stream), max_size=6)
    return draw(st.lists(streams, min_size=1, max_size=3))


@settings(deadline=None, max_examples=60)
@given(params=st.sampled_from(HIERARCHIES), calls=address_streams())
def test_hierarchy_matches_oracle_levels(params, calls):
    assert_hierarchy_matches(params, calls)


@settings(deadline=None, max_examples=20)
@given(params=st.sampled_from(HIERARCHIES), calls=address_streams())
def test_disabled_hierarchy_matches_oracle(params, calls):
    assert_hierarchy_matches(params, calls, enabled=False)


@pytest.mark.parametrize("params", HIERARCHIES[:3],
                         ids=["tiny", "tiny-l1-only", "riscv_vec"])
def test_hierarchy_matches_oracle_beyond_one_batch(params):
    """Streams of more lines than one internal batch, and an empty one
    between them: L1 and L2 state cross batch boundaries mid-stream."""
    rng = np.random.default_rng(7)
    span = 8 * params.l1.size_bytes
    n = cache_mod.BATCH_LINES + 5000
    streams = [
        rng.integers(0, span, size=n) & ~63,
        np.zeros(0, dtype=np.int64),
        (np.arange(2 * n, dtype=np.int64) * 64) % span,
        rng.integers(0, 4 * span, size=n // 3),
    ]
    assert_hierarchy_matches(params, [streams[:2], streams[2:]])


# -- one call for a whole run: batches across kernels ----------------------


def assert_run_matches(params, kernels):
    """One ``access`` call carries every kernel's streams, in order; the
    oracle sees them stream by stream."""
    hier, oracle = MemoryHierarchy(params), OracleHierarchy(params)
    got = list(charge_tuples(hier.access(address_lines(
        hier, (s for streams in kernels for s in streams)))))
    want = [(*oracle.access(s), len(s)) for streams in kernels
            for s in streams]
    assert got == want
    assert hier.element_accesses == oracle.element_accesses
    assert (hier.l1.accesses, hier.l1.misses) == (oracle.l1.accesses,
                                                  oracle.l1.misses)
    if params.l2 is not None:
        assert (hier.l2.accesses, hier.l2.misses) == (
            oracle.l2.accesses, oracle.l2.misses)


@settings(deadline=None, max_examples=60)
@given(params=st.sampled_from(HIERARCHIES), kernels=address_streams(),
       batch_lines=st.integers(1, 16))
def test_one_call_for_many_kernels_matches_oracle(params, kernels,
                                                  batch_lines):
    with mock.patch.object(cache_mod, "BATCH_LINES", batch_lines):
        assert_run_matches(params, kernels)


@pytest.mark.parametrize("params", HIERARCHIES[:2], ids=["tiny",
                                                         "tiny-l1-only"])
def test_empty_streams_at_a_batch_boundary(params):
    """Batches of 8 lines.  The first kernel's two streams of cold lines
    fill L1's first batch, and L2's, exactly; the empty streams after
    them arrive once both are decided.  The second kernel's first lines
    hit in L1, so L1 and L2 boundaries part.  The run ends on a full L1
    batch and then an empty stream, which no batch decides."""
    def lines(first, n):
        return (first + np.arange(n, dtype=np.int64)) * 64

    empty = np.zeros(0, dtype=np.int64)
    kernels = [
        [lines(0, 5), lines(100, 3), empty, empty],
        [empty, lines(100, 3), lines(200, 5), empty],
        [empty, lines(300, 16), empty, lines(0, 8), empty],
    ]
    with mock.patch.object(cache_mod, "BATCH_LINES", 8):
        assert_run_matches(params, kernels)


# -- folded streams: the loops an access does not read ---------------------


def resident(cache: Cache) -> list[list[int]]:
    """Each set's resident lines, least recently used first."""
    return [cache._ways[s, cache._assoc - cache._fill[s]:].tolist()
            for s in range(cache._n_sets)]


def assert_fold_matches(params, warm, kernel, instance, expanded):
    """*kernel*'s streams folded by ``RunStreams`` and their *expanded*
    byte addresses, each after the *warm* addresses, into two fresh
    hierarchies: the same charges, counts and resident lines.  The list
    LRU checks the expanded side."""
    folded, full = MemoryHierarchy(params), MemoryHierarchy(params)
    plan = RunStreams([kernel], instance, None, folded)
    got = list(charge_tuples(folded.access(chain(
        address_lines(folded, [warm]), plan.run()))))
    want = list(charge_tuples(full.access(address_lines(
        full, [warm, *expanded]))))
    assert got == want
    assert folded.element_accesses == full.element_accesses
    for a, b in ((folded.l1, full.l1), (folded.l2, full.l2)):
        assert (a.accesses, a.misses) == (b.accesses, b.misses)
        assert resident(a) == resident(b)
    assert folded.check_invariants() == []

    oracle = OracleHierarchy(params)
    assert want == [(*oracle.access(s), len(s)) for s in [warm, *expanded]]
    assert resident(full.l1) == oracle.l1._sets
    assert resident(full.l2) == oracle.l2._sets
    return got


def gather_kernel(tables, repeats, outer):
    """One scalar block per stream: stream ``s`` reads line
    ``tables[s][m][i]`` at loops ``(q, m, r, i)``, so its repeat loops
    ``r`` (*repeats*) and, if *outer* gives one, ``q`` read nothing.
    Returns the kernel, its instance and each stream's expanded byte
    addresses."""
    lines = max(max(max(row) for row in t) for t in tables) + 1
    data = Array("a", (8 * lines,))
    blocks, expanded = [], []
    instance = KernelInstance()
    instance.bind(data)
    base = instance.binding("a").base_addr
    for s, (table, r, q) in enumerate(zip(tables, repeats, outer)):
        tab = Array(f"tab{s}", (len(table), len(table[0])), dtype="i8")
        instance.bind(tab, np.asarray(table, dtype=np.int64))
        ref = Ref(data, (Indirect(tab, (Affine((("m", 1),)),
                                        Affine((("i", 1),))), scale=8),))
        loops, extents = ("m", "r", "i"), (len(table), r, len(table[0]))
        if q is not None:
            loops, extents = ("q",) + loops, (q,) + extents
        blocks.append(ScalarBlock(1, loops, extents, ((ScalarOp.LOAD, 1.0),),
                                  0.0, (AccessDesc(ref, False),)))
        once = [line for row in table for line in row * r]
        expanded.append(base + 64 * np.asarray(once * (q or 1),
                                               dtype=np.int64))
    return CompiledKernel("k", 1, blocks), instance, expanded


def tiny_hierarchy(l1_sets, l1_ways, l2_sets, l2_ways):
    return MemoryParams(
        l1=CacheParams("L1", 64 * l1_sets * l1_ways, line_bytes=64,
                       assoc=l1_ways, miss_penalty=10.0),
        l2=CacheParams("L2", 64 * l2_sets * l2_ways, line_bytes=64,
                       assoc=l2_ways, miss_penalty=37.5))


@st.composite
def periodic_runs(draw):
    """A tiny two-level hierarchy, a warm-up, and periodic streams: each
    a period of 1-6 lines per segment from a small pool (repeated lines,
    and sometimes a last line equal to the first, so copies merge at the
    seam), the period repeated 1-7 times, sometimes all of it repeated
    again 1-7 times.  Half the warm-ups end with a pool line hot in L1
    but gone from L2, the first period's first line: the state in which
    L2's misses repeat only from a period's second copy on."""
    hot = draw(st.booleans())
    if hot:  # shaped like test_third_kept_iteration_keeps_l2_exact's
        l2_sets = draw(st.sampled_from([1, 2]))
        l1_sets = draw(st.sampled_from([s for s in (2, 4) if s > l2_sets]))
        ways = [1, 2]
    else:
        l1_sets, l2_sets = (draw(st.sampled_from([1, 2, 4]))
                            for _ in range(2))
        ways = [draw(st.integers(1, 2)) for _ in range(2)]
    params = tiny_hierarchy(l1_sets, ways[0], l2_sets, ways[1])
    pool = draw(st.lists(st.integers(0, 11), min_size=1, max_size=5,
                         unique=True))
    warm = draw(st.lists(st.integers(0, 11), max_size=12))
    line = None
    if hot:
        # a pool line, then lines of its L2 set but another L1 set, each
        # followed by it: L1 keeps it, L2 loses it.
        line = draw(st.sampled_from(pool))
        warm += [line] + [x for m in range(2)
                          for x in (line + l2_sets + l1_sets * m, line)]
    tables, repeats, outer = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        period = draw(st.integers(1, 6))
        table = [draw(st.lists(st.sampled_from(pool), min_size=period,
                               max_size=period))
                 for _ in range(draw(st.integers(1, 2)))]
        if line is not None and not tables:
            # it, then a line of its L1 set: they push each other out of
            # L1 in every copy from the second on.
            table[0][:2] = [line, line + l1_sets][:period]
        if draw(st.booleans()):
            for row in table:
                row[-1] = row[0]
        tables.append(table)
        repeats.append(draw(st.integers(1, 7)))
        outer.append(draw(st.one_of(st.none(), st.integers(1, 7))))
    return params, warm, (tables, repeats, outer)


@settings(deadline=None, max_examples=150)
@given(case=periodic_runs(), batch_lines=st.integers(1, 16))
def test_folded_streams_match_expanded(case, batch_lines):
    """The first three iterations of every loop a stream does not read,
    the third weighted by those left, against every iteration: through
    ``MemoryHierarchy.access`` from the same warm state, in batches of
    1-16 lines."""
    params, warm, streams = case
    kernel, instance, expanded = gather_kernel(*streams)
    warm = instance.binding("a").base_addr + 64 * np.asarray(
        warm, dtype=np.int64)
    with mock.patch.object(cache_mod, "BATCH_LINES", batch_lines):
        assert_fold_matches(params, warm, kernel, instance, expanded)


#: L1 2 sets x 1 way, L2 1 set x 2 ways.
HOT_IN_L1_ONLY = tiny_hierarchy(2, 1, 1, 2)


def test_third_kept_iteration_keeps_l2_exact():
    """Warm up with A=0, C=1, D=3: L1 keeps A, but L2 keeps only C and
    D.  Then [A, B=2] six times.  L1 hits A once and misses the other 11
    accesses; L2, fed those 11 lines, misses only B and A once each.
    Three kept iterations, the last weighted 4, say the same.  Two kept
    iterations, the last weighted 5, would not: L1's misses repeat from
    the second iteration on, L2's only from the third, so L2 would
    count A's second miss five times."""
    warm = Lines(np.array([0, 1, 3]), 3)

    def l2_misses(stream):
        hier = MemoryHierarchy(HOT_IN_L1_ONLY)
        charges = list(charge_tuples(hier.access([warm, stream])))
        assert hier.l1.accesses == 3 + 12
        return charges[1][1:]

    expanded = Lines(np.array([0, 2] * 6), 12)
    assert l2_misses(expanded) == (11, 2, 12)
    three = Lines(np.array([0, 2] * 3), 12, np.array([1, 1, 1, 1, 4, 4]))
    assert l2_misses(three) == (11, 2, 12)
    two = Lines(np.array([0, 2] * 2), 12, np.array([1, 1, 5, 5]))
    assert l2_misses(two) == (11, 6, 12)

    # and as RunStreams folds it: A and B through a table, six times.
    kernel, instance, [stream] = gather_kernel([[[0, 2]]], [6], [None])
    base = instance.binding("a").base_addr
    got = assert_fold_matches(HOT_IN_L1_ONLY, base + 64 * np.array([0, 1, 3]),
                              kernel, instance, [stream])
    assert got[1] == (11 * 10.0 + 2 * 37.5, 11, 2, 12)


# -- recurring items: a level replays its decisions set by set -------------


def list_oracle(params, items):
    """Each stream's charges, decided line by line by two list LRUs, a
    line of weight ``w`` counting ``w`` accesses and, if it missed, ``w``
    misses (keys play no part); the levels' weighted accesses and
    misses; and the two list LRUs."""
    levels = [ListLRU(params.l1), ListLRU(params.l2)]
    counts = [[0, 0], [0, 0]]
    charges = []
    for item in items:
        weights = (np.ones(item.lines.size, dtype=np.int64)
                   if item.weights is None else item.weights)
        elements = np.atleast_1d(item.elements).tolist()
        ends = ([item.lines.size] if item.ends is None
                else item.ends.tolist())
        start = 0
        for end, count in zip(ends, elements):
            lines, w = item.lines[start:end], weights[start:end]
            start = end
            missed = []
            for level, tally in zip(levels, counts):
                miss = np.array([level.access_lines(line).size == 1
                                 for line in lines.reshape(-1, 1)],
                                dtype=bool)
                tally[0] += int(w.sum())
                tally[1] += int(w[miss].sum())
                missed.append(int(w[miss].sum()))
                lines, w = lines[miss], w[miss]
            charges.append((missed[0] * params.l1.miss_penalty
                            + missed[1] * params.l2.miss_penalty,
                            *missed, count))
    return charges, counts, levels


def strip_keys(items):
    return [item._replace(key=None) for item in items]


def assert_replay_matches(params, items):
    """*items* (keyed and not) through one hierarchy call, against the
    same items with their keys stripped and against the list LRUs: the
    same charges, weighted counts and resident lines."""
    keyed, plain = MemoryHierarchy(params), MemoryHierarchy(params)
    got = list(charge_tuples(keyed.access(iter(items))))
    assert got == list(charge_tuples(plain.access(iter(strip_keys(items)))))
    want, counts, levels = list_oracle(params, items)
    assert got == want
    for level, ref, (accesses, misses) in zip((keyed.l1, keyed.l2),
                                              levels, counts):
        assert (level.accesses, level.misses) == (accesses, misses)
        assert resident(level) == ref._sets
    for a, b in ((keyed.l1, plain.l1), (keyed.l2, plain.l2)):
        assert (a.accesses, a.misses) == (b.accesses, b.misses)
    assert keyed.check_invariants() == []


#: RISCV_VEC's L1 (64 sets x 8 ways, 512 lines) with a 1024-line L2 (128
#: sets x 8 ways): a recurring item's L1 misses may hold more lines than
#: L2, or fewer.
SMALL_L2 = dataclasses.replace(
    RISCV_VEC.memory,
    l2=dataclasses.replace(RISCV_VEC.memory.l2, size_bytes=64 << 10,
                           assoc=8))


def recurring_items(seed, keys, recurrences, pool, length, dirty,
                    weighted):
    """*keys* recurring items of *length* lines each (1-3 streams) from a
    pool of *pool* distinct lines, each sent *recurrences* times; between
    two sends, an unkeyed item rewrites each of a random *dirty* share of
    L1's sets with 1-10 new lines, so some sets stay as they were and
    others change.  Folded weights: 1-5 per line when *weighted*."""
    rng = np.random.default_rng(seed)
    sets = SMALL_L2.l1.n_sets
    recurring = []
    for key in range(keys):
        lines = rng.choice(rng.choice(1 << 20, pool, replace=False), length)
        cuts = np.sort(rng.integers(0, length + 1, rng.integers(0, 3)))
        ends = np.append(cuts, length)
        weights = rng.integers(1, 6, length) if weighted else None
        # each stream's element accesses: at least its lines' weights.
        accesses = np.append(0, np.cumsum(
            np.ones(length, dtype=np.int64) if weights is None else weights))
        elements = np.diff(accesses[ends], prepend=0)
        recurring.append(Lines(lines, elements + rng.integers(
            0, 100, ends.size), weights, ends, key))
    items = []
    for _ in range(recurrences):
        for item in recurring:
            items.append(item)
            rewritten = np.flatnonzero(rng.random(sets) < dirty)
            if rewritten.size:
                per_set = rng.integers(1, 11, rewritten.size)
                tags = rng.integers(1 << 21, 1 << 22, per_set.sum())
                items.append(Lines(tags * sets + np.repeat(rewritten, per_set),
                                   int(per_set.sum())))
    return items


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), keys=st.integers(1, 2),
       recurrences=st.integers(2, 4),
       pool=st.sampled_from([64, 300, 2000, 6000]),
       length=st.integers(100, 2500),
       dirty=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       weighted=st.booleans(), batch_lines=st.sampled_from([97, 1024]))
def test_recurring_items_match_unkeyed_and_list_lru(
        seed, keys, recurrences, pool, length, dirty, weighted, batch_lines):
    """One hierarchy call fed keyed items several times, with items that
    rewrite some sets between them.  Pools from 64 to 6000 lines and
    items of 100-2500 lines give L1 items shorter and longer than L1 (512
    lines), and L1 misses shorter and longer than L2 (1024 lines)."""
    items = recurring_items(seed, keys, recurrences, pool, length, dirty,
                            weighted)
    with mock.patch.object(cache_mod, "BATCH_LINES", batch_lines):
        assert_replay_matches(SMALL_L2, items)


def test_replay_takes_every_path():
    """A full replay, partial replays, and lone decisions at both levels,
    each seen by a spy; and the short L2 items of a small pool are
    batched, never decided alone."""
    with recurring_paths() as long:
        # L1 misses of 2000 lines from a pool of 6000: longer than L2.
        assert_replay_matches(SMALL_L2, recurring_items(
            1, 1, 4, 6000, 2000, 0.3, True))
        assert_replay_matches(SMALL_L2, recurring_items(
            2, 1, 3, 6000, 2000, 0.0, False))
    with recurring_paths() as short:
        # a pool of 300 lines stays in L1: its misses are shorter than L2.
        assert_replay_matches(SMALL_L2, recurring_items(
            3, 1, 3, 300, 1000, 0.3, False))
    assert {("L1d", "anew"), ("L1d", "partial"), ("L1d", "full"),
            ("L2", "anew"), ("L2", "full")} <= long
    assert {level for level, _ in short} == {"L1d"}
