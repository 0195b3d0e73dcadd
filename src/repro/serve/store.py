"""Content-addressed response store: in-memory LRU + optional disk tier.

The daemon's cache is keyed by ``(kind, canonical_sha256(model))``: the
model hash covers exactly what the analysis consumes, so a hit can be
replayed as the stored response bytes without recomputation and stay
byte-identical to a cold computation.  ``kind`` separates the analyze
namespace from the per-algorithm assign namespaces.

The disk tier follows the sweep chunk-cache conventions of
:mod:`repro.sweep.executor`: one JSON file per entry with a ``format``
field, written atomically, and *any* corruption on load -- truncated
file, wrong shape, format mismatch -- degrades to a miss (recompute),
never an error.  A damaged cache can cost time, not correctness, and a
daemon restarted with the same ``--cache-dir`` starts warm.  Entries are
stamped with the package version and report ``schema_version`` and
rejected on mismatch: a cache key covers only the *input*, so replaying
bytes produced by a different analysis version would silently break the
byte-identity serving contract after an upgrade.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.sweep.result import atomic_write_text, producer_version

#: Disk entry schema version (independent of the chunk-cache format).
STORE_FORMAT = 1


class ResultStore:
    """LRU response cache with an optional persistent tier.

    Thread-safe: the daemon's event loop and its dispatch thread both
    touch the store.  ``max_entries`` bounds the in-memory tier only;
    the disk tier (when ``cache_dir`` is given) keeps every entry.
    """

    def __init__(
        self, max_entries: int = 1024, cache_dir: Optional[str] = None
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = (
            os.path.join(cache_dir, "serve") if cache_dir else None
        )
        self._lru: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0

    @staticmethod
    def key(kind: str, sha: str) -> str:
        """Flat store key; ``kind`` namespaces analyze vs assign variants."""
        return f"{kind}-{sha}"

    def _disk_path(self, key: str) -> str:
        # Hash the key into the filename so arbitrary algorithm names can
        # never escape the cache directory or exceed filename limits.
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"response-{digest}.json")

    def get(self, kind: str, sha: str) -> Optional[str]:
        """Stored response body for ``(kind, sha)``, or ``None`` (miss)."""
        key = self.key(kind, sha)
        with self._lock:
            body = self._lru.get(key)
            if body is not None:
                self._lru.move_to_end(key)
                self.hits_memory += 1
                return body
        if self.cache_dir:
            body = self._load_disk(key)
            if body is not None:
                with self._lock:
                    self._remember(key, body)
                    self.hits_disk += 1
                return body
        with self._lock:
            self.misses += 1
        return None

    def seen(self, kind: str, sha: str) -> bool:
        """Is the key already in the memory tier?  No stats, no disk.

        Lets coalesced waiters -- N requests that shared one computation
        -- skip N-1 redundant ``put`` calls (each an atomic write on the
        disk tier) without perturbing the hit/miss counters.
        """
        with self._lock:
            return self.key(kind, sha) in self._lru

    def put(self, kind: str, sha: str, body: str) -> None:
        """Store a response body under ``(kind, sha)`` in both tiers."""
        key = self.key(kind, sha)
        with self._lock:
            self._remember(key, body)
        if self.cache_dir:
            payload = json.dumps(
                {
                    "format": STORE_FORMAT,
                    "version": producer_version(),
                    "key": key,
                    "body": body,
                }
            )
            atomic_write_text(self._disk_path(key), payload)

    def _remember(self, key: str, body: str) -> None:
        self._lru[key] = body
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)

    def _load_disk(self, key: str) -> Optional[str]:
        """Read one disk entry; any corruption degrades to a miss."""
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None  # truncated write from a killed daemon: recompute
        if (
            not isinstance(data, dict)
            or data.get("format") != STORE_FORMAT
            or data.get("version") != producer_version()
            or data.get("key") != key
            or not isinstance(data.get("body"), str)
        ):
            return None
        return data["body"]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._lru),
                "max_entries": self.max_entries,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
            }
