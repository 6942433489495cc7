"""Sharded, content-addressed result store with cross-tenant dedup.

The sweep service's durable memory.  Two planes:

* the **object plane** — one JSON payload per *content digest* (the
  executor's ``__digest__`` sha256 over the counter body), sharded by
  the first :data:`SHARD_WIDTH` hex characters so a million objects
  never melt one directory.  Identical counters from any number of
  tenants are one object: content addressing *is* the dedup.
* the **link plane** — one tiny index entry per
  :meth:`~repro.experiments.config.RunConfig.key` mapping the config to
  its digest.  Many tenants submitting the same config resolve through
  the same link; the simulation ran once.

Both planes write through the executor cache's one durable writer
(:func:`~repro.experiments.executor.write_atomic`: tmp + fsync +
``os.replace`` + directory fsync) and verify digests on read.  A torn
or bit-rotted shard object fails its digest check on
:meth:`ResultStore.get`, is discarded, counted in ``corrupt_discarded``,
and the caller re-simulates — degradation is observable (the service
emits a ``store_corrupt`` event), never silent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.executor import payload_digest, write_atomic

#: hex characters of the digest used as the shard directory name; 2
#: gives 256 shards, plenty for any plausible object count here.
SHARD_WIDTH = 2


@dataclass
class StoreStats:
    """One store instance's accounting (in-memory tallies + disk scan)."""

    #: payloads stored by this instance (a fresh object was written).
    puts: int = 0
    #: put() calls that found the object already present (cross-tenant /
    #: cross-job dedup: the simulation was never re-run).
    dedup_hits: int = 0
    #: lookups served from the store.
    hits: int = 0
    #: corrupt objects (digest mismatch / torn JSON) discarded on read.
    corrupt_discarded: int = 0
    #: corrupt link entries discarded on read.
    corrupt_links: int = 0

    def to_dict(self) -> dict:
        return {"puts": self.puts, "dedup_hits": self.dedup_hits,
                "hits": self.hits,
                "corrupt_discarded": self.corrupt_discarded,
                "corrupt_links": self.corrupt_links}


class ResultStore:
    """Content-addressed payload store under ``root``.

    Layout::

        root/objects/<aa>/<digest>.json    one counter payload per digest
        root/links/<cfg_key>.json          {"key": ..., "digest": ...}
    """

    def __init__(self, root: str | os.PathLike, metrics=None):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.links = self.root / "links"
        self.stats = StoreStats()
        #: optional MetricsRegistry mirroring ``stats`` into the
        #: telemetry plane (``store_*_total`` counters).
        self.metrics = metrics

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- object plane ------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self.objects / digest[:SHARD_WIDTH] / f"{digest}.json"

    def put(self, payload: dict, trace_id: str = "") -> str:
        """Store one counter payload; returns its content digest.

        The digest is computed over the counter body (``__*`` metadata
        keys excluded), so the same simulation result always lands on
        the same object regardless of verdict annotations.  An existing
        object is left untouched (``dedup_hits``).

        A non-empty *trace_id* is stamped into the object as
        ``__trace__`` — a ``__*`` key, so it never perturbs the digest:
        the trace context from a traced ``submit`` travels all the way
        into the durable result without forking the dedup plane.  The
        solver convergence record (``__solve__``) rides along the same
        way, so ``jobs --results`` returns it intact.
        """
        digest = payload.get("__digest__") or payload_digest(payload)
        path = self.object_path(digest)
        if path.exists():
            self.stats.dedup_hits += 1
            self._count("store_dedup_hits_total")
            return digest
        body = {k: v for k, v in payload.items() if not k.startswith("__")}
        body["__digest__"] = digest
        if "__solve__" in payload:
            body["__solve__"] = payload["__solve__"]
        if trace_id:
            body["__trace__"] = trace_id
        write_atomic(path, json.dumps(body, sort_keys=True))
        self.stats.puts += 1
        self._count("store_puts_total")
        return digest

    def get(self, digest: str) -> Optional[dict]:
        """Fetch one payload by digest; a torn / bit-rotted shard object
        fails verification, is deleted, and returns ``None``."""
        path = self.object_path(digest)
        try:
            text = path.read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise TypeError("store object must be a JSON object")
            if data.get("__digest__") != digest:
                raise ValueError("store object digest mismatch")
            if payload_digest(data) != digest:
                raise ValueError("store object content drifted")
        except (json.JSONDecodeError, TypeError, ValueError):
            self.stats.corrupt_discarded += 1
            self._count("store_corrupt_objects_total")
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        return data

    # -- link plane --------------------------------------------------------

    def link_path(self, cfg_key: str) -> Path:
        return self.links / f"{cfg_key}.json"

    def link(self, cfg_key: str, digest: str) -> None:
        """Bind a config key to its result digest (atomic, durable)."""
        write_atomic(self.link_path(cfg_key),
                     json.dumps({"key": cfg_key, "digest": digest},
                                sort_keys=True))

    def digest_for(self, cfg_key: str) -> Optional[str]:
        """The digest a config key resolves to, if linked."""
        try:
            text = self.link_path(cfg_key).read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            data = json.loads(text)
            digest = data["digest"]
            if not isinstance(digest, str) or not digest:
                raise ValueError("empty digest")
        except (json.JSONDecodeError, TypeError, KeyError, ValueError):
            self.stats.corrupt_links += 1
            self._count("store_corrupt_links_total")
            try:
                self.link_path(cfg_key).unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        return digest

    def lookup(self, cfg_key: str) -> Optional[dict]:
        """Resolve a config key to its payload through the link plane;
        ``None`` when unlinked or when the object failed verification."""
        digest = self.digest_for(cfg_key)
        if digest is None:
            return None
        payload = self.get(digest)
        if payload is not None:
            self.stats.hits += 1
            self._count("store_hits_total")
        return payload

    # -- accounting --------------------------------------------------------

    def object_count(self) -> int:
        return sum(1 for _ in self.objects.glob(f"*/{'*'}.json"))

    def link_count(self) -> int:
        return sum(1 for _ in self.links.glob("*.json"))

    def health(self) -> dict:
        return {"objects": self.object_count(), "links": self.link_count(),
                **self.stats.to_dict()}
