"""Durable sweep journal: checkpoint/resume for ``execute_plan``.

A sweep killed mid-flight (SIGINT, OOM, power loss) must resume without
re-running completed work and without granting crashed configs a fresh
retry budget.  The journal is an append-only JSONL file next to the run
cache; every record is flushed and fsynced before the sweep proceeds, so
the journal is never *ahead* of reality.

Record kinds (one JSON object per line):

* ``sweep_start`` -- a new ``execute_plan`` call began (resets the
  per-sweep attempt accounting);
* ``done`` / ``fail_attempt`` / ``failed`` / ``quarantined`` -- per-run
  lifecycle, keyed by :meth:`RunConfig.key`;
* ``sweep_end`` -- the sweep finished; a journal whose last segment has
  no ``sweep_end`` records an interrupted sweep.

:func:`replay_journal` folds the **last** segment into a
:class:`JournalState`; earlier segments are irrelevant because completed
runs also live in the versioned disk cache.  A torn trailing line (the
crash may have hit mid-append) is ignored, mirroring the cache's
corruption-recovery contract — including a tail of non-UTF8 garbage,
which a power loss mid-sector can legitimately leave behind.

Opening a :class:`SweepJournal` for append first *repairs* a torn tail:
the bytes after the last newline are truncated (and the truncation
fsynced) so the next record starts on a fresh line instead of being
glued onto the torn fragment — which would corrupt an otherwise valid
record.  :func:`repair_torn_tail` is the standalone entry point.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class JournalState:
    """Folded view of a journal's last sweep segment."""

    #: keys whose runs completed (their counters are in the disk cache).
    done: set = field(default_factory=set)
    #: failed attempts per key in the interrupted segment -- consumed
    #: retry budget that a resume must honour.
    fail_attempts: Counter = field(default_factory=Counter)
    #: keys that failed permanently, with the last error.
    failed: dict = field(default_factory=dict)
    #: keys quarantined for repeated validation failure.
    quarantined: dict = field(default_factory=dict)
    #: True when the segment has a ``sweep_start`` without ``sweep_end``.
    interrupted: bool = False


def repair_torn_tail(path: str | os.PathLike) -> int:
    """Truncate a torn (newline-less) trailing fragment off a journal.

    A crash mid-append leaves the file ending in a partial record with
    no trailing newline; appending to it would splice the next record
    onto the fragment and corrupt *both*.  This trims the file back to
    its last complete line — the recovered prefix — and fsyncs the
    truncation so the repair itself is durable.  Returns the number of
    bytes removed (0 when the file is absent, empty, or healthy).
    """
    p = Path(path)
    try:
        with open(p, "rb+") as fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return 0
            cut = data.rfind(b"\n") + 1  # 0 when no newline at all
            fh.truncate(cut)
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:  # pragma: no cover - journal on a pipe
                pass
            return len(data) - cut
    except (FileNotFoundError, OSError):
        return 0


def read_records(path: str | os.PathLike) -> Optional[list[dict]]:
    """The ``{"ev": ...}`` records of the JSONL journal at *path*, in
    order; ``None`` when the file does not exist.

    Corruption-tolerant by contract: a torn line — truncated JSON, or
    raw non-UTF8 bytes — is skipped and the intact records around it
    are recovered, never an exception.
    """
    try:
        raw = Path(path).read_bytes()
    except (FileNotFoundError, OSError):
        return None
    records = []
    for bline in raw.split(b"\n"):
        try:
            line = bline.decode("utf-8").strip()
        except UnicodeDecodeError:
            continue  # torn binary tail: recover the prefix, never crash
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing write: ignore, never crash
        if isinstance(rec, dict) and "ev" in rec:
            records.append(rec)
    return records


def replay_journal(path: str | os.PathLike) -> Optional[JournalState]:
    """Fold an existing journal; ``None`` when the file does not exist.

    Torn lines are skipped (see :func:`read_records`).
    """
    records = read_records(path)
    if records is None:
        return None
    state = JournalState()
    for rec in records:
        ev = rec["ev"]
        if ev == "sweep_start":
            state = JournalState(interrupted=True)
        elif ev == "sweep_end":
            state.interrupted = False
        elif ev == "done":
            key = rec.get("key", "")
            state.done.add(key)
            state.failed.pop(key, None)
        elif ev == "fail_attempt":
            state.fail_attempts[rec.get("key", "")] += 1
        elif ev == "failed":
            state.failed[rec.get("key", "")] = rec.get("error", "")
        elif ev == "quarantined":
            key = rec.get("key", "")
            state.quarantined[key] = rec.get("error", "")
            state.failed[key] = rec.get("error", "")
    return state


class SweepJournal:
    """Append-only, fsynced journal writer for one ``execute_plan``.

    Opening repairs a torn trailing line first (see
    :func:`repair_torn_tail`) so new records never splice onto a crash
    fragment.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.repaired_bytes = repair_torn_tail(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def record(self, ev: str, **fields) -> None:
        line = json.dumps({"ev": ev, **fields}, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - e.g. journal on a pipe
            pass

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best effort
            pass

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
