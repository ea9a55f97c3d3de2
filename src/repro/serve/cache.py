"""Content-addressed score cache for the serving path.

Scoring a candidate pair is a pure function of the pipeline snapshot and
the pair's encoded, truncated token ids: padding is bit-neutral and
:meth:`repro.pipeline.ERPipeline.probabilities` makes batch composition
bit-neutral too (DESIGN.md §6b), so a cached value equals a fresh one
exactly.  That makes matcher probabilities safely memoizable under the
key

    (pipeline ``manifest_digest``, blake2b(token ids))

:class:`ScoreCache` implements two tiers behind that key:

* a bounded in-process **LRU** consulted by the engines before batch
  formation, so only genuine misses are encoded into batches and reach a
  forward pass;
* an optional **persistent tier** stored through :mod:`repro.artifacts` —
  one atomic, checksummed ``.npz`` shard per snapshot digest, so a
  republished snapshot (new digest) can never serve stale probabilities:
  its shard name simply no longer matches.  A corrupt shard is quarantined
  by the store and treated as empty instead of poisoning decisions.

Every lookup moves the cache's own ``hits``/``misses`` (and an admission
its ``evictions``), read back with :meth:`ScoreCache.stats`; each engine
run also counts the hits, misses and evictions it caused on its own
:class:`~repro.serve.metrics.ServeMetrics` ``cache`` record, and wraps
its lookup pass in a ``serve.cache.lookup`` span, so cache efficiency
shows up in traces like every other serving number (``python -m perf
run`` reports it per layer on its ``rescore_cached`` workload).

The cache is **thread/task-safe**: one re-entrant lock guards the LRU
``OrderedDict``, the per-digest persistent shards and their dirty counts,
and the hit/miss/evict counters.  The serving daemon shares one cache
between its event loop and its scoring executor, and an unguarded
``move_to_end`` racing an eviction sweep corrupts the LRU order book (or
dies with ``RuntimeError: dictionary changed size during iteration`` in
:meth:`flush`); the lock makes every public operation atomic.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..artifacts import ArtifactError, ArtifactStore

logger = logging.getLogger("repro.serve")

#: Default bound on in-memory entries (float64 + key ≈ 60 B/entry → ~15 MB).
DEFAULT_CAPACITY = 262_144


def pair_key(token_ids: Sequence[int]) -> str:
    """Content hash of one encoded (truncated) token-id sequence.

    The digest covers the exact int64 byte stream, so token order and
    sequence length are part of the identity; two pairs collide only if
    they serialize to the same ids, in which case their probabilities are
    identical by construction.
    """
    data = np.asarray(token_ids, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class ScoreCache:
    """Two-tier memoization of match probabilities by snapshot + content.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least recently used entry is evicted
        past it.  Must be positive.
    directory:
        Optional persistent-tier directory (an :class:`ArtifactStore`
        root).  Misses fall through to the shard for the active snapshot
        digest; :meth:`flush` persists accumulated entries atomically.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 directory: Optional[Union[str, Path]] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._memory: "OrderedDict[tuple, float]" = OrderedDict()
        self._store = ArtifactStore(directory) if directory is not None else None
        #: Per-digest persistent shards loaded this session (lazily).
        self._persistent: Dict[str, Dict[str, float]] = {}
        self._dirty: Dict[str, int] = {}
        # Re-entrant: get() -> _shard() and put() -> _admit() nest, and the
        # daemon's event loop and scoring executor hit the cache concurrently.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- persistent tier ---------------------------------------------------- #
    @staticmethod
    def _shard_name(snapshot_digest: str) -> str:
        return f"scores-{snapshot_digest[:16]}.npz"

    def _shard(self, snapshot_digest: str) -> Dict[str, float]:
        """Load (once) the persistent shard for one snapshot digest."""
        with self._lock:
            shard = self._persistent.get(snapshot_digest)
            if shard is not None:
                return shard
            shard = {}
            if self._store is not None:
                name = self._shard_name(snapshot_digest)
                try:
                    shard = self._store.read(name, _read_shard)
                except FileNotFoundError:
                    pass
                except ArtifactError as error:
                    # Quarantined by the store; a cache must heal, not crash.
                    logger.warning("score-cache shard unreadable, rebuilding "
                                   "cold: %s", error)
            self._persistent[snapshot_digest] = shard
            return shard

    def flush(self) -> Optional[Path]:
        """Persist accumulated entries; returns the last shard path written.

        A no-op without a persistent directory.  Each snapshot digest gets
        its own shard, written atomically and checksummed into the store's
        manifest; snapshots that gained no entries are skipped.
        """
        if self._store is None:
            return None
        written = None
        # Hold the lock across the whole pass: the shard dict fed to the
        # writer is the same object concurrent evictions spill into, and the
        # LRU iteration below must not race an _admit().
        with self._lock:
            for digest, dirty in list(self._dirty.items()):
                if not dirty:
                    continue
                shard = self._shard(digest)
                for (entry_digest, key), value in self._memory.items():
                    if entry_digest == digest:
                        shard[key] = value
                name = self._shard_name(digest)
                written = self._store.write(
                    name, lambda tmp, shard=shard: _write_shard(shard, tmp))
                self._dirty[digest] = 0
        return written

    # -- lookup / store ----------------------------------------------------- #
    def get(self, snapshot_digest: str, key: str) -> Optional[float]:
        """One probability, or ``None`` on miss (both tiers consulted)."""
        full = (snapshot_digest, key)
        with self._lock:
            value = self._memory.get(full)
            if value is not None:
                self._memory.move_to_end(full)
                self.hits += 1
                return value
            persisted = self._shard(snapshot_digest).get(key)
            if persisted is not None:
                self.hits += 1
                self._admit(full, persisted, dirty=False)
                return persisted
            self.misses += 1
            return None

    def lookup(self, snapshot_digest: str, keys: Iterable[str]) -> np.ndarray:
        """Vector lookup: cached probabilities with ``NaN`` marking misses.

        ``NaN`` is unambiguous as a miss sentinel — a valid probability is
        finite in [0, 1], and the engines re-assert full coverage after
        scoring whatever missed.
        """
        keys = list(keys)
        out = np.full(len(keys), np.nan, dtype=np.float64)
        for i, key in enumerate(keys):
            value = self.get(snapshot_digest, key)
            if value is not None:
                out[i] = value
        return out

    def put(self, snapshot_digest: str, key: str, probability: float) -> int:
        """Admit one scored probability (must be finite).

        Returns the number of LRU entries evicted by the admission, so
        callers (the per-run throughput meter) can account evictions they
        caused without diffing globally shared counters.
        """
        probability = float(probability)
        if not np.isfinite(probability):
            raise ValueError(
                f"refusing to cache non-finite probability {probability!r}")
        with self._lock:
            return self._admit((snapshot_digest, key), probability, dirty=True)

    def put_many(self, snapshot_digest: str, keys: Sequence[str],
                 probabilities: np.ndarray) -> int:
        if len(keys) != len(probabilities):
            raise ValueError("keys and probabilities disagree on length")
        evicted = 0
        for key, probability in zip(keys, probabilities):
            evicted += self.put(snapshot_digest, key, probability)
        return evicted

    def _admit(self, full: tuple, value: float, dirty: bool) -> int:
        with self._lock:
            if full in self._memory:
                self._memory.move_to_end(full)
            self._memory[full] = value
            if dirty:
                self._dirty[full[0]] = self._dirty.get(full[0], 0) + 1
            evicted = 0
            while len(self._memory) > self.capacity:
                evicted_key, evicted_value = self._memory.popitem(last=False)
                evicted += 1
                self.evictions += 1
                if self._store is not None and self._dirty.get(evicted_key[0]):
                    # Keep an unflushed entry reachable through the persistent
                    # shard rather than silently dropping computed work.
                    # (Memory-only caches really evict: without a store there
                    # is nowhere durable to keep the overflow, and hoarding it
                    # in the shard dict would make the LRU bound meaningless.)
                    self._shard(evicted_key[0])[evicted_key[1]] = evicted_value
            return evicted

    # -- introspection ------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._memory),
                    "hit_rate": self.hit_rate}

    def clear(self) -> None:
        """Drop the in-memory tier (persistent shards stay on disk)."""
        with self._lock:
            self._memory.clear()
            self._persistent.clear()
            self._dirty.clear()


# --------------------------------------------------------------------------- #
# shard (de)serialization
# --------------------------------------------------------------------------- #

def _write_shard(shard: Dict[str, float], tmp: Path) -> None:
    keys = np.asarray(sorted(shard), dtype=np.str_)
    values = np.asarray([shard[k] for k in keys.tolist()], dtype=np.float64)
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, keys=keys, values=values)


def _read_shard(path: Path) -> Dict[str, float]:
    with np.load(path, allow_pickle=False) as archive:
        keys = archive["keys"].tolist()
        values = archive["values"]
    if len(keys) != len(values):
        # ValueError is in CORRUPT_EXCEPTIONS, so the store quarantines the
        # shard instead of letting a torn file poison future lookups.
        raise ValueError(f"score shard {path} keys/values length mismatch")
    return dict(zip(keys, values.tolist()))
