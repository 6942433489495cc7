"""Set-associative LRU cache simulator.

This is a line-accurate functional cache model: it is fed the *actual*
byte addresses touched by the compiled mini-app (global mesh arrays,
chunk-local working arrays, CSR coefficients), so capacity and conflict
behaviour emerge from the real data layout.  That realism is what lets
the reproduction recover the paper's phase-1/phase-8 results: their cost
per element grows with VECTOR_SIZE because the chunk working set
overflows L1, and Table 6 shows the cycle counts of those phases are
explained (R^2 > 0.9) by L1 data-cache misses plus memory-instruction
ratio.

How hits are decided.  The model is exact LRU, decided for a whole batch
of accesses at once with NumPy instead of line by line.  By the stack
property of LRU (Mattson et al., "Evaluation techniques for storage
hierarchies", 1970), an access to a line hits if and only if fewer than
``assoc`` distinct lines of its set were touched strictly between it and
the previous touch of the same line.  So a batch is stable-sorted by set,
each touched set's resident lines are put in front of its accesses (least
recently used first), every access is linked to the previous touch of its
line, and the distinct lines in each window are counted.  The count stops
once it reaches ``assoc``: at any point at most ``assoc`` lines of a set
are that close to the top of its LRU stack, so the counting work is at
most ``assoc`` times the batch length.  The resident lines after the
batch are the last ``assoc`` distinct lines of each touched set.

Batches are bounded (:data:`BATCH_LINES`), so a whole run's lines are
decided in large batches without holding working arrays the size of the
run.

What the hierarchy is fed.  :meth:`MemoryHierarchy.access` takes a run's
streams in order -- every chunk's kernels, each kernel's streams -- in
one call, as :class:`Lines` items: streams their producer already
collapsed to consecutive-distinct lines (:func:`addresses_to_lines`,
then :func:`dedup_consecutive`), back to back, with the element count
each stands for and where each one's lines end.  The machine
(:mod:`repro.machine.cpu`) sends one :class:`Lines` per kernel and
chunk: it builds an affine stream's lines from its address coefficients
and a gather's from its element addresses (:func:`dedup_rows`, many
chunks' copies of one stream at once).  Batches run across stream,
kernel and chunk boundaries, and the batches inside one item are views
of it; the call returns each stream's misses as :class:`Charges`, a few
arrays however many streams the run has.

Weighted lines.  A producer may fold the loops of a stream that repeat
its addresses (:mod:`repro.machine.cpu`): it keeps three iterations of
each and gives every line of the third a weight, the iterations it
stands for.  That is exact by the same stack property.  A level fed a
repeating period decides identically from the period's second copy on,
and ends every copy in the state it ended the first in: a set holds the
last ``assoc`` distinct lines it was sent.  L1's input repeats from the
first iteration, but L2's input, L1's misses, only from the second, so
the third iteration decides as every later one at both levels.  A level
decides a weighted line once, like any other, and counts it as
``weight`` accesses and, if it missed, ``weight`` misses: the levels'
``accesses`` and ``misses``, each stream's :class:`Charges` and the
final resident lines all equal the unfolded stream's.  L1 keeps its
misses before each stream boundary unweighted too, since those are
where the boundaries fall in L2's input.

Recurring items.  A producer may mark items that hold the same lines
and weights each time they come with a *key* (:class:`Lines`): the
machine marks a kernel's item when none of its streams moves with the
chunk.  LRU sets are independent: a set's hits, misses and final lines
depend only on its lines before an item and on the item's accesses to
it, in order; weights enter no decision.  So a level records, per key,
the rows of the sets the item touches before and after it, and its
miss mask; when the key comes again, every set whose rows are the
recorded entry rows takes the recorded decisions and exit rows, and
the item, cut to the other sets, is decided anew.  The levels'
``accesses`` and ``misses``, every :class:`Charges` and the final
resident lines are those of deciding every line.  Three rules keep
this exact and cheap:

* a level decides a recurring item as a unit -- the lines before it
  first, then the item -- only when the item holds at least as many
  lines as the level (``n_sets * assoc``); a shorter item is batched
  with the lines around it, which costs less than deciding it alone,
  and the level drops its record;
* L1's misses of a recurring item go on to L2 as a recurring item
  under the same key, and L2 replays only when L1 replayed every set of
  the item: only then are L2's lines the ones it recorded;
* records last one :meth:`MemoryHierarchy.access` call: keys are the
  producer's (program positions), and one machine may run two programs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.machine.params import CacheParams, MemoryParams

#: lines :meth:`Cache.access_lines` decides per batch.  A batch costs about
#: sixty NumPy calls, so batches must be large for the per-call overhead
#: to vanish, but a batch's working arrays grow with it: with whole-kernel
#: batches (up to ~340k lines) the peak resident memory of a quick-mesh
#: run rose from 87 to 100 MB, with 64k-line batches to 90 MB, while 16k
#: lines keep it at 87 MB.  A constant, not an option, for that reason;
#: read at call time, so a test can shrink it.
BATCH_LINES = 1 << 14


def addresses_to_lines(addrs: np.ndarray, line_bytes: int) -> np.ndarray:
    """Convert byte addresses to cache-line indices (*line_bytes* is a
    power of two, so this is a shift rather than a division)."""
    if line_bytes & (line_bytes - 1):
        raise ValueError(f"line size {line_bytes} is not a power of two")
    return np.asarray(addrs, dtype=np.int64) >> (line_bytes.bit_length() - 1)


def dedup_consecutive(lines: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate line indices.

    Repeated accesses to the line just touched are guaranteed hits and do
    not move any LRU state, so removing them preserves the miss count
    exactly while shrinking the stream (unit-stride element accesses
    collapse by ~8x for 64-byte lines).
    """
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size <= 1:
        return lines
    keep = np.empty(lines.size, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


class Rows(NamedTuple):
    """Many copies of one stream collapsed at once, one row per copy:
    the kept lines, row after row, and the offset of each row's first
    kept line plus the total, so row ``r`` keeps
    ``lines[offsets[r]:offsets[r + 1]]``; and each kept line's weight
    (``None`` for a stream whose lines weigh one each)."""

    lines: np.ndarray
    offsets: np.ndarray
    weights: Optional[np.ndarray] = None


def dedup_rows(lines: np.ndarray, weights: Optional[np.ndarray] = None
               ) -> Rows:
    """:func:`dedup_consecutive` of every row of a 2-D array at once.

    *weights*, if given, holds each element's weight, broadcast against
    a row; a kept line weighs what the element that kept it does.
    """
    keep = np.empty(lines.shape, dtype=bool)
    keep[:, :1] = True
    np.not_equal(lines[:, 1:], lines[:, :-1], out=keep[:, 1:])
    offsets = np.zeros(lines.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=offsets[1:])
    if weights is not None:
        weights = np.broadcast_to(weights, lines.shape)[keep]
    return Rows(lines[keep], offsets, weights)


class Lines(NamedTuple):
    """Access streams already collapsed to consecutive-distinct cache
    lines, back to back (``None`` for a hierarchy that is off), and the
    element accesses each stream stands for.  Folded streams' lines
    carry *weights*: the accesses each stands for (``None``: one each).

    One stream has an ``int`` element count and no *ends*.  N streams
    have an int64 array of N element counts and, with lines, *ends*:
    where each stream's lines end in *lines*.  A *key* marks a recurring
    item: every item of one :meth:`MemoryHierarchy.access` call with
    that key holds the same lines and weights."""

    lines: Optional[np.ndarray]
    elements: "int | np.ndarray"
    weights: Optional[np.ndarray] = None
    ends: Optional[np.ndarray] = None
    key: Optional[int] = None


class _Item(NamedTuple):
    """Lines a cache level decides, in order, and their weights
    (``None``: one each).  A recurring item has a *key*; *renew* says
    its lines may not be the ones last sent under it, so the level
    decides it anew."""

    lines: np.ndarray
    weights: Optional[np.ndarray] = None
    key: Optional[int] = None
    renew: bool = False


class _Record(NamedTuple):
    """A level's decisions for one recurring item: the sets it touches,
    ascending; their rows (each set's ways, then its fill) before and
    after it; and its miss mask."""

    sets: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    miss: np.ndarray


@dataclass(frozen=True, eq=False)
class Charges:
    """What one :meth:`MemoryHierarchy.access` call charged each of its
    streams, in order, as four arrays: stall cycles (``penalty``), L1
    and L2 misses, and element accesses."""

    penalty: np.ndarray
    l1_misses: np.ndarray
    l2_misses: np.ndarray
    elements: np.ndarray


def _batches(items: Iterable[_Item]) -> Iterator[_Item]:
    """Regroup *items* into batches of :data:`BATCH_LINES` lines (the
    last one shorter), in order, and pass each recurring item on whole:
    the lines before it are batched first.  A batch's weights are
    ``None`` when none of its lines carry one.

    Only a batch that spans items is copied together; the batches inside
    one item are views of it.  No view of an item is held while the next
    item is built."""
    pending: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
    size = 0
    for item in items:
        if item.key is not None:
            if size:
                yield _Item(*join_lines(pending))
                pending, size = [], 0
            yield item
            del item
            continue
        lines, weights = item.lines, item.weights
        at = 0
        while at < lines.size:
            cut = slice(at, min(at + BATCH_LINES - size, lines.size))
            at = cut.stop
            if cut.stop - cut.start == BATCH_LINES:  # a whole batch: a view
                yield _Item(lines[cut],
                            None if weights is None else weights[cut])
                continue
            pending.append((lines[cut],
                            None if weights is None else weights[cut]))
            size += cut.stop - cut.start
            if size == BATCH_LINES:
                yield _Item(*join_lines(pending))
                pending, size = [], 0
        if pending and pending[-1][0].size < lines.size:
            # a view of the item's tail would hold the whole item.
            pending[-1] = tuple(None if a is None else a.copy()
                                for a in pending[-1])
        del item, lines, weights
    if size:
        yield _Item(*join_lines(pending))


def join_lines(parts: list[tuple[np.ndarray, Optional[np.ndarray]]]
               ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One ``(lines, weights)`` pair of *parts*, in order."""
    lines = np.concatenate([p[0] for p in parts])
    if all(p[1] is None for p in parts):
        return lines, None
    return lines, np.concatenate([
        np.ones(p[0].size, dtype=np.int64) if p[1] is None else p[1]
        for p in parts])


class _Tally:
    """One cache level's misses before each stream boundary of its input.

    The boundaries arrive in order as the streams do, and each is
    resolved by the batch that decides the line before it, or at the
    end.  Misses are weighted: a missed line counts its weight.  With
    *positions* the tally also keeps, per boundary, the lines missed
    before it unweighted: where the boundary falls in the level's
    output, the next level's input.  The sequences are ``array("q")``:
    a run can have a hundred thousand streams.
    """

    def __init__(self, bounds: Optional[array] = None,
                 positions: bool = False):
        self.bounds = array("q") if bounds is None else bounds
        #: weighted misses before each resolved boundary.
        self.before = array("q")
        #: unweighted misses before each resolved boundary.
        self.positions = array("q") if positions else None
        self.decided = 0
        self.missed = 0
        self.output = 0

    def add(self, miss: np.ndarray, weights: Optional[np.ndarray]) -> None:
        """Account the level's next decided batch, by its miss mask and
        its lines' weights."""
        start, stop = self.decided, self.decided + miss.size
        lo = len(self.before)
        hi = bisect_right(self.bounds, stop, lo)
        missed = np.flatnonzero(miss)
        cost = None  # cost[k]: the weight of the batch's first k misses
        if weights is not None:
            cost = np.zeros(missed.size + 1, dtype=np.int64)
            np.cumsum(weights[missed], out=cost[1:])
        if hi > lo:
            at = np.searchsorted(missed, np.frombuffer(
                self.bounds[lo:hi], dtype=np.int64) - start)
            if self.positions is not None:
                self.positions.frombytes((at + self.output).tobytes())
            if cost is not None:
                at = cost[at]
            self.before.frombytes((at + self.missed).tobytes())
        self.decided = stop
        self.output += missed.size
        self.missed += missed.size if cost is None else int(cost[-1])

    def misses(self) -> np.ndarray:
        """Resolve the boundaries at the end of the input; return each
        stream's misses."""
        pad = len(self.bounds) - len(self.before)
        self.before.extend([self.missed] * pad)
        if self.positions is not None:
            self.positions.extend([self.output] * pad)
        return np.diff(np.frombuffer(self.before, dtype=np.int64), prepend=0)


class Cache:
    """One set-associative LRU cache level.

    The resident lines live in an ``(n_sets, assoc)`` array, each row
    ordered least to most recently used and right-aligned: set ``s``
    holds ``fill[s]`` lines in its last columns.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._n_sets = params.n_sets
        self._assoc = params.assoc
        self._set_mask = params.n_sets - 1
        #: narrowest dtype of a set index: NumPy sorts up to 16 bits by radix.
        self._set_dtype = np.min_scalar_type(params.n_sets - 1)
        self._ways = np.zeros((params.n_sets, params.assoc), dtype=np.int64)
        self._fill = np.zeros(params.n_sets, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    def access_lines(self, lines: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Access a stream of line indices in order.

        Returns a boolean mask over *lines*, true where the access missed,
        so ``lines[mask]`` is the missed lines in stream order, ready for
        the next level.  A line of weight ``w`` (*weights*, default one
        each) counts as ``w`` accesses, and as ``w`` misses if it missed.
        """
        lines = np.asarray(lines, dtype=np.int64)
        miss = self._decide(lines)
        self._count(miss, weights)
        return miss

    def access_items(self, items: Iterable[_Item]
                     ) -> Iterator[tuple[_Item, np.ndarray, bool]]:
        """Access *items* in order, decided in the units
        :func:`_batches` makes of them: yields each unit, its miss mask,
        and whether it is a recurring item that replayed every set it
        touches.

        A recurring item shorter than the level (``n_sets * assoc``
        lines) is batched like any other, and its record dropped.  The
        records last as long as this generator."""
        records: dict[int, _Record] = {}
        alone = self._n_sets * self._assoc

        def units():
            for item in items:
                if item.key is not None and item.lines.size < alone:
                    records.pop(item.key, None)
                    item = item._replace(key=None)
                yield item
                del item  # not held while the next item is built

        for unit in _batches(units()):
            if unit.key is None:
                miss, replayed = self._decide(unit.lines), False
            else:
                miss, replayed = self._recur(unit, records)
            self._count(miss, unit.weights)
            yield unit, miss, replayed
            del unit, miss

    def _decide(self, lines: np.ndarray) -> np.ndarray:
        """Miss mask of *lines*, decided in batches of
        :data:`BATCH_LINES`; updates the resident lines."""
        miss = np.empty(lines.size, dtype=bool)
        for start in range(0, lines.size, BATCH_LINES):
            stop = start + BATCH_LINES
            miss[start:stop] = self._access_batch(lines[start:stop])
        return miss

    def _count(self, miss: np.ndarray, weights: Optional[np.ndarray]) -> None:
        """Count decided lines as accesses, and missed ones as misses,
        each line as its weight."""
        if weights is None:
            self.accesses += int(miss.size)
            self.misses += int(np.count_nonzero(miss))
        else:
            self.accesses += int(weights.sum())
            self.misses += int(weights[miss].sum())

    def _rows(self, sets: np.ndarray) -> np.ndarray:
        """The rows of *sets*: each set's ways, then its fill."""
        return np.column_stack((self._ways[sets], self._fill[sets]))

    def _restore(self, sets: np.ndarray, rows: np.ndarray) -> None:
        """Set the rows of *sets* (as :meth:`_rows` gives them)."""
        self._ways[sets] = rows[:, :-1]
        self._fill[sets] = rows[:, -1]

    def _recur(self, item: _Item, records: dict[int, _Record]
               ) -> tuple[np.ndarray, bool]:
        """Decide a recurring item: every set it touches whose rows are
        the recorded entry rows replays the record, the item cut to the
        other sets is decided anew, and the record takes their rows and
        decisions.  Returns the item's miss mask and whether every set
        replayed."""
        lines, record = item.lines, None if item.renew else records.get(
            item.key)
        if record is None:
            sets = np.flatnonzero(np.bincount(lines & self._set_mask,
                                              minlength=self._n_sets))
            entry = self._rows(sets)
            miss = self._decide(lines)
            records[item.key] = _Record(sets, entry, self._rows(sets), miss)
            return miss, False
        entry = self._rows(record.sets)
        dirty = (entry != record.entry).any(axis=1)
        if not dirty.any():
            self._restore(record.sets, record.exit)
            return record.miss, True
        self._restore(record.sets[~dirty], record.exit[~dirty])
        sets = record.sets[dirty]
        anew = np.zeros(self._n_sets, dtype=bool)
        anew[sets] = True
        at = np.flatnonzero(anew[lines & self._set_mask])
        miss = record.miss.copy()
        miss[at] = self._decide(lines[at])
        record.entry[dirty] = entry[dirty]
        record.exit[dirty] = self._rows(sets)
        records[item.key] = record._replace(miss=miss)
        return miss, False

    def _access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Miss mask of one batch; updates the resident lines.  Working
        arrays are deleted as soon as they are used up, which cuts the
        peak memory of a batch by a third to a half."""
        assoc, set_mask = self._assoc, self._set_mask
        sets = (lines & set_mask).astype(self._set_dtype)

        # Each touched set's resident lines, LRU first, then its accesses
        # in stream order: a stable sort by set with the residents first.
        touched = np.flatnonzero(np.bincount(sets, minlength=self._n_sets))
        fill = self._fill[touched]
        resident = self._ways[touched][
            np.arange(assoc) >= (assoc - fill)[:, None]]
        n_resident = resident.size
        order = np.argsort(np.concatenate(
            (np.repeat(touched, fill).astype(self._set_dtype), sets)),
            kind="stable")
        del sets
        seq = np.concatenate((resident, lines))[order]
        del resident

        # A touch of the line its set touched last is a hit that moves
        # nothing: drop it.  ``pos`` maps what is left to ``order``'s input.
        new = np.empty(seq.size, dtype=bool)
        new[0] = True
        np.not_equal(seq[1:], seq[:-1], out=new[1:])
        pos, seq = order[new], seq[new]
        del order, new
        n = seq.size

        # Link each touch to the previous touch of its line: sort (line,
        # position) pairs packed into one int64, lines relative to the
        # smallest one.
        shift = n.bit_length()
        low = int(seq.min())
        if int(seq.max()) - low >= 1 << (63 - shift):
            raise ValueError("line indices of one batch span more than "
                             f"2**{63 - shift} lines")
        key = seq - low
        key <<= shift
        key |= np.arange(n)
        key.sort()
        at = key & ((1 << shift) - 1)
        key >>= shift
        again = key[1:] == key[:-1]
        del key
        prev, cur = at[:-1][again], at[1:][again]
        del at, again

        # The touch at y brings a line new to the window that opens at p
        # exactly when its own previous touch lies before p: gap[y] > y - p.
        gap = np.full(n, n)
        span = cur - prev
        gap[cur] = span
        hit = np.zeros(n, dtype=bool)
        # A window shorter than assoc cannot hold assoc distinct lines.
        hit[cur[span <= assoc]] = True
        wide = span > assoc
        p, q, span = prev[wide], cur[wide], span[wide]
        del cur, wide
        seen = np.zeros(p.size, dtype=np.int64)
        for d in range(1, assoc + 1):  # inside every wide window
            seen += gap[p + d] > d
        scanned, width = assoc, assoc
        while p.size:
            evicted = seen >= assoc
            done = evicted | (span <= scanned + 1)
            hit[q[done & ~evicted]] = True
            p, q, span, seen = (a[~done] for a in (p, q, span, seen))
            d = scanned + 1 + np.arange(width)
            y = np.minimum(p[:, None] + d, n - 1)
            seen += ((gap[y] > d) & (d < span[:, None])).sum(axis=1)
            scanned += width
            width *= 2
        del gap

        # New state: the last assoc distinct lines of each touched set.
        last = np.ones(n, dtype=bool)
        last[prev] = False
        final = seq[last]
        final_sets = final & set_mask
        count = np.bincount(final_sets, minlength=self._n_sets)
        from_mru = np.cumsum(count)[final_sets] - np.arange(1, final.size + 1)
        keep = from_mru < assoc
        self._ways.reshape(-1)[final_sets[keep] * assoc + (assoc - 1)
                               - from_mru[keep]] = final[keep]
        self._fill[touched] = np.minimum(count[touched], assoc)

        miss = np.zeros(n_resident + lines.size, dtype=bool)
        miss[pos[~hit]] = True
        return miss[n_resident:]

    def check_invariants(self, label: str = "cache") -> list[str]:
        """Accounting sanity: ``0 <= misses <= accesses``.  Returns the
        violations (empty when healthy) — the detection hook for the
        fault-injection harness's perturbed-counter experiments."""
        out: list[str] = []
        if self.misses < 0:
            out.append(f"{label}: negative miss count {self.misses}")
        if self.accesses < 0:
            out.append(f"{label}: negative access count {self.accesses}")
        if self.misses > self.accesses:
            out.append(
                f"{label}: misses ({self.misses}) exceed accesses "
                f"({self.accesses})")
        return out


class MemoryHierarchy:
    """L1 (+ optional L2) hierarchy with penalty accounting.

    Stall penalties are the misses' cost only; hit costs are part of the
    instruction timing and are *not* charged here.
    """

    def __init__(self, params: MemoryParams, enabled: bool = True):
        self.params = params
        self.enabled = enabled
        self.l1 = Cache(params.l1)
        self.l2: Optional[Cache] = Cache(params.l2) if params.l2 is not None else None
        #: element-level access count (before line collapsing), for the
        #: misses-per-kilo-instruction style metrics.
        self.element_accesses = 0

    def access(self, streams: Iterable[Lines]) -> Charges:
        """Run access streams through the hierarchy, in order.

        Each :class:`Lines` item holds one or many streams, already
        collapsed to consecutive-distinct cache lines (none needed when
        the hierarchy is off).  L1 decides the lines in batches as they
        accumulate, across stream boundaries; L2 decides L1's misses, in
        order, in its own batches, lagging behind L1.  A level decides a
        recurring item (a keyed :class:`Lines`) as a unit where it is at
        least as long as the level, replaying its decisions where they
        recur (see the module docstring).

        Returns every stream's :class:`Charges`.  A stream's penalty is
        ``l1_misses * l1.miss_penalty``, plus ``l2_misses *
        l2.miss_penalty`` when there is an L2.
        """
        elements = array("q")
        l1 = _Tally(positions=self.l2 is not None)
        # L2's input is L1's misses: its boundaries are where L1's fall
        # in them, unweighted.
        l2 = _Tally(l1.positions)

        def items():
            end = 0
            for stream in streams:
                # one stream, or many: a count and an end each.
                elements.frombytes(
                    np.asarray(stream.elements, dtype=np.int64).tobytes())
                if self.enabled:
                    ends = (stream.lines.size if stream.ends is None
                            else stream.ends)
                    l1.bounds.frombytes(
                        np.asarray(ends + end, dtype=np.int64).tobytes())
                    end += stream.lines.size
                    yield _Item(stream.lines, stream.weights, stream.key)
                del stream  # not held while the next item is built

        def l1_missed():
            for unit, miss, replayed in self.l1.access_items(items()):
                l1.add(miss, unit.weights)
                # L1's misses of a recurring item are the ones L2 last
                # saw under its key only if L1 replayed all of it.
                missed = _Item(unit.lines[miss], None if unit.weights is None
                               else unit.weights[miss], unit.key,
                               not replayed)
                del unit, miss  # views of an item, as above
                yield missed

        if self.l2 is None:
            for _ in l1_missed():
                pass
        else:
            for unit, miss, _ in self.l2.access_items(l1_missed()):
                l2.add(miss, unit.weights)
                del unit, miss
        counts = np.array(elements, dtype=np.int64)
        self.element_accesses += int(counts.sum())
        if not self.enabled:
            zeros = np.zeros(counts.size, dtype=np.int64)
            return Charges(zeros.astype(np.float64), zeros, zeros, counts)

        l1_misses = l1.misses()  # first: it completes L2's boundaries
        penalty = l1_misses * self.params.l1.miss_penalty
        l2_misses = np.zeros_like(l1_misses)
        if self.l2 is not None:
            l2_misses = l2.misses()
            penalty += l2_misses * self.params.l2.miss_penalty
        return Charges(penalty, l1_misses, l2_misses, counts)

    def check_invariants(self) -> list[str]:
        """Hierarchy-wide accounting invariants (empty when healthy):
        per-level sanity plus inclusion (L2 is only fed L1's missed
        lines, so cumulative L2 accesses equal cumulative L1 misses)."""
        out = self.l1.check_invariants("L1")
        if self.l2 is not None:
            out += self.l2.check_invariants("L2")
            if self.l2.accesses != self.l1.misses:
                out.append(
                    f"L2 accesses ({self.l2.accesses}) != L1 misses "
                    f"({self.l1.misses})")
        if self.element_accesses < 0:
            out.append(f"negative element access count {self.element_accesses}")
        if self.enabled and self.l1.accesses > self.element_accesses:
            out.append(
                f"L1 accesses ({self.l1.accesses}) exceed element accesses "
                f"({self.element_accesses})")
        return out
