"""Sharded blocking over entity streams with spilled, checksummed state.

The in-memory blockers in :mod:`repro.blocking` hold one full table (plus
its inverted index) resident, which caps them around a few hundred thousand
rows.  :class:`ShardedBlocker` is the constant-memory replacement: both
tables stream through in chunks, the left table is folded into fixed-size
**shards** spilled through :mod:`repro.artifacts` (atomic writes, manifest
checksums — a torn spill can never silently produce a truncated candidate
set), and candidates are emitted window by window with at most one shard's
index resident at a time.

Each shard holds MinHash signatures folded into LSH band keys
(:class:`~repro.scale.minhash.MinHasher`); a right row collides with a
left row iff they share at least one band key.  Sub-linear in the cross
product and tunable via the ``(bands, rows)`` S-curve, with an optional
signature-Jaccard verify filter.

**Emission order is shard-layout-invariant**, so the same tables give the
same candidate stream, and therefore the same output files and windows,
whatever the shard and chunk sizes.  The blocker emits right rows in table
order and, within each right row, left partners sorted by global left row
index; shard and chunk boundaries are unobservable in the output.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .. import telemetry
from ..artifacts import ArtifactStore
from ..data import DEFAULT_CHUNK_SIZE, Entity, EntityPair, ensure_chunks
from ..text import tokenize
from ..blocking.stream import CandidateStream
from .minhash import DEFAULT_BANDS, DEFAULT_ROWS, MinHasher

#: Left rows folded into one spilled shard (and right rows probed per
#: window).  2^16 rows keeps a resident shard in the tens of megabytes.
DEFAULT_SHARD_SIZE = 65536


def _expand_ranges(lo: np.ndarray, hi: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized multi-arange: for each i yield pairs (i, p) for p in
    [lo[i], hi[i]).  Returns (owner indices, flat positions)."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    owners = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    group_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(group_start,
                                                           counts)
    return owners, starts + offsets


class _ShardSpiller:
    """Accumulates left rows and spills full shards through the store."""

    def __init__(self, blocker: "ShardedBlocker", store: ArtifactStore):
        self.blocker = blocker
        self.store = store
        self.schema: Optional[Tuple[str, ...]] = None
        self.shards: List[Dict[str, Any]] = []
        self.total_rows = 0
        self.spilled_bytes = 0
        self._reset_buffer()

    def _reset_buffer(self) -> None:
        self._ids: List[str] = []
        self._values: List[List[str]] = []
        self._nulls: List[List[bool]] = []
        self._token_sets: List[Set[str]] = []

    def add_chunk(self, chunk: Sequence[Entity]) -> None:
        for entity in chunk:
            names = entity.attribute_names()
            if self.schema is None:
                self.schema = names
            elif names != self.schema:
                raise ValueError(
                    f"entity {entity.entity_id!r} has attributes "
                    f"{list(names)}, expected {list(self.schema)}")
            self._ids.append(entity.entity_id)
            self._values.append(["" if v is None else str(v)
                                 for v in entity.attributes.values()])
            self._nulls.append([v is None
                                for v in entity.attributes.values()])
            self._token_sets.append(set(tokenize(entity.text())))
        while len(self._ids) >= self.blocker.shard_size:
            self._flush(self.blocker.shard_size)

    def finish(self) -> None:
        if self._ids:
            self._flush(len(self._ids))

    def _flush(self, count: int) -> None:
        name = f"shard_{len(self.shards):05d}.npz"
        base = self.total_rows
        arrays: Dict[str, np.ndarray] = {
            "ids": np.array(self._ids[:count]),
        }
        assert self.schema is not None
        columns = list(zip(*self._values[:count]))
        masks = list(zip(*self._nulls[:count]))
        for i in range(len(self.schema)):
            arrays[f"val_{i}"] = np.array(columns[i])
            arrays[f"nul_{i}"] = np.array(masks[i], dtype=bool)
        hasher = self.blocker.hasher
        signatures = hasher.signatures(self._token_sets[:count])
        keys = hasher.band_keys(signatures)
        # Pre-sort each band column so the probe pass is a straight
        # searchsorted; the permutation recovers local row numbers.
        order = np.argsort(keys, axis=0, kind="stable").T
        arrays["keys_sorted"] = np.take_along_axis(
            keys, order.T, axis=0).T.copy()
        arrays["keys_order"] = order.astype(np.int64)
        # Low byte of each MinHash value: enough to estimate Jaccard for the
        # verify filter (equal values agree exactly; unequal values alias
        # with probability 1/256) at 1/8 the spill size.
        arrays["sig8"] = (signatures & np.uint64(0xFF)).astype(np.uint8)
        with telemetry.span("scale.block.spill", shard=name, rows=count):
            path = self.store.write(
                name, lambda tmp: np.savez(tmp, **arrays))
        size = path.stat().st_size
        self.spilled_bytes += size
        self.shards.append({"name": name, "base": base, "rows": count,
                            "bytes": size})
        self.total_rows += count
        del self._ids[:count]
        del self._values[:count]
        del self._nulls[:count]
        del self._token_sets[:count]


class ShardedBlocker(CandidateStream):
    """Constant-memory candidate generation over entity streams.

    Parameters
    ----------
    bands, rows, seed:
        MinHash/LSH shape: ``bands * rows`` permutations, candidate
        threshold ``(1/bands)**(1/rows)``.
    verify_threshold:
        When set, band collisions whose estimated Jaccard (the share of
        equal signature low bytes) falls below it are dropped.
    shard_size:
        Left rows per spilled shard, and right rows probed per window —
        the resident-memory knob.
    chunk_size:
        Granularity at which entity streams are consumed.
    spill_dir:
        Directory for the spill store.  ``None`` uses a private temporary
        directory deleted when iteration completes.
    """

    def __init__(self, bands: int = DEFAULT_BANDS, rows: int = DEFAULT_ROWS,
                 seed: int = 0, verify_threshold: Optional[float] = None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 spill_dir: Optional[Union[str, Path]] = None):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if verify_threshold is not None and not 0.0 < verify_threshold <= 1.0:
            raise ValueError("verify_threshold must be in (0, 1] or None")
        self.verify_threshold = verify_threshold
        self.hasher = MinHasher(bands, rows, seed)
        self.shard_size = shard_size
        self.chunk_size = chunk_size
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        #: Spill/probe statistics of the most recent iteration (for the
        #: bench report): shards, left/right rows, spilled bytes, candidates.
        self.last_stats: Optional[Dict[str, Any]] = None

    def config(self) -> Dict[str, Any]:
        return {"bands": self.hasher.bands,
                "rows": self.hasher.rows, "seed": self.hasher.seed,
                "verify_threshold": self.verify_threshold,
                "shard_size": self.shard_size,
                "chunk_size": self.chunk_size}

    # -- iteration ---------------------------------------------------------- #
    def iter_candidates(self, left_table: Iterable[Entity],
                        right_table: Iterable[Entity]
                        ) -> Iterator[EntityPair]:
        """Stream candidate pairs with bounded memory.

        Accepts flat entity iterables or pre-chunked streams (see
        :func:`repro.data.ensure_chunks`) for both tables.  Emission order:
        right rows in table order; within one right row, left partners by
        ascending global left row index — invariant to ``shard_size``,
        ``chunk_size``, and spill layout.
        """
        if self.spill_dir is not None:
            yield from self._run(ArtifactStore(self.spill_dir), left_table,
                                 right_table)
            return
        with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
            yield from self._run(ArtifactStore(Path(tmp)), left_table,
                                 right_table)

    def _run(self, store: ArtifactStore, left_table: Iterable[Entity],
             right_table: Iterable[Entity]) -> Iterator[EntityPair]:
        with telemetry.span("scale.block.pass1"):
            spiller = _ShardSpiller(self, store)
            for chunk in ensure_chunks(left_table, self.chunk_size):
                spiller.add_chunk(chunk)
            spiller.finish()
        store.write_json("blocker.json", {
            "config": self.config(), "left_rows": spiller.total_rows,
            "shards": spiller.shards}, indent=2, sort_keys=True)
        stats: Dict[str, Any] = {
            "num_shards": len(spiller.shards),
            "left_rows": spiller.total_rows, "right_rows": 0,
            "spilled_bytes": spiller.spilled_bytes, "candidates": 0,
            "max_shard_rows": max((s["rows"] for s in spiller.shards),
                                  default=0),
            "max_shard_bytes": max((s["bytes"] for s in spiller.shards),
                                   default=0)}
        self.last_stats = stats
        if not spiller.shards:
            return
        window: List[Entity] = []
        for chunk in ensure_chunks(right_table, self.chunk_size):
            window.extend(chunk)
            stats["right_rows"] += len(chunk)
            if len(window) >= self.shard_size:
                yield from self._probe_window(store, spiller, window, stats)
                window = []
        if window:
            yield from self._probe_window(store, spiller, window, stats)

    # -- probing ------------------------------------------------------------ #
    def _load_shard(self, store: ArtifactStore, name: str
                    ) -> Dict[str, np.ndarray]:
        # validator=None skips the full zip-decompression check on every
        # window reload; the manifest sha256 comparison still runs, so a
        # damaged spill fails loudly instead of dropping candidates.
        return store.read(
            name, lambda p: dict(np.load(p, allow_pickle=False)),
            validator=None)

    def _probe_window(self, store: ArtifactStore, spiller: _ShardSpiller,
                      window: Sequence[Entity],
                      stats: Dict[str, Any]) -> Iterator[EntityPair]:
        with telemetry.span("scale.block.probe", window_rows=len(window),
                            num_shards=len(spiller.shards)):
            signatures = self.hasher.signatures(
                [set(tokenize(e.text())) for e in window])
            right_keys = self.hasher.band_keys(signatures)
            right_sig8 = (signatures & np.uint64(0xFF)).astype(np.uint8)
            owners: List[np.ndarray] = []
            partners: List[np.ndarray] = []
            left_entities: Dict[int, Entity] = {}
            for shard in spiller.shards:
                data = self._load_shard(store, shard["name"])
                rr, ll = self._probe_minhash(data, right_keys, right_sig8)
                if rr.size == 0:
                    continue
                owners.append(rr)
                partners.append(ll + shard["base"])
                assert spiller.schema is not None
                self._materialize(data, spiller.schema, shard["base"],
                                  np.unique(ll), left_entities)
        if not owners:
            return
        rr_all = np.concatenate(owners)
        gl_all = np.concatenate(partners)
        # Right row major, global left index minor: the shard-invariant
        # emission order.
        order = np.lexsort((gl_all, rr_all))
        stats["candidates"] += int(order.size)
        for position in order:
            yield EntityPair(left_entities[int(gl_all[position])],
                             window[int(rr_all[position])])

    def _probe_minhash(self, data: Dict[str, np.ndarray],
                       right_keys: np.ndarray, right_sig8: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(right row, local left row) band collisions against one shard,
        optionally verified against the estimated signature Jaccard."""
        keys_sorted = data["keys_sorted"]  # (bands, n) each row sorted
        keys_order = data["keys_order"]
        shard_rows = keys_sorted.shape[1]
        hits_rr: List[np.ndarray] = []
        hits_ll: List[np.ndarray] = []
        for band in range(self.hasher.bands):
            table = keys_sorted[band]
            queries = right_keys[:, band]
            lo = np.searchsorted(table, queries, side="left")
            hi = np.searchsorted(table, queries, side="right")
            rr, pos = _expand_ranges(lo, hi)
            if rr.size:
                hits_rr.append(rr)
                hits_ll.append(keys_order[band][pos])
        if not hits_rr:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rr = np.concatenate(hits_rr)
        ll = np.concatenate(hits_ll)
        # A pair colliding in several bands is still one candidate.
        combined = np.unique(rr * shard_rows + ll)
        rr, ll = combined // shard_rows, combined % shard_rows
        if self.verify_threshold is None:
            return rr, ll
        return self._verify(data["sig8"], right_sig8, rr, ll)

    def _verify(self, left_sig8: np.ndarray, right_sig8: np.ndarray,
                rr: np.ndarray, ll: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Drop collisions whose estimated Jaccard — the fraction of equal
        signature components, measured on the spilled low bytes — falls
        below ``verify_threshold``.  Blocked so the gathered comparison
        matrix stays tens of megabytes however many collisions a window
        produced."""
        keep_chunks: List[np.ndarray] = []
        block = 1 << 18
        for start in range(0, rr.size, block):
            stop = start + block
            agree = left_sig8[ll[start:stop]] == right_sig8[rr[start:stop]]
            keep_chunks.append(agree.mean(axis=1) >= self.verify_threshold)
        keep = np.concatenate(keep_chunks)
        return rr[keep], ll[keep]

    @staticmethod
    def _materialize(data: Dict[str, np.ndarray], schema: Sequence[str],
                     base: int, local_rows: np.ndarray,
                     out: Dict[int, Entity]) -> None:
        """Rebuild Entity objects for the matched rows of one shard."""
        ids = data["ids"]
        for local in local_rows.tolist():
            attributes: Dict[str, Optional[str]] = {}
            for i, name in enumerate(schema):
                if bool(data[f"nul_{i}"][local]):
                    attributes[name] = None
                else:
                    attributes[name] = str(data[f"val_{i}"][local])
            out[base + local] = Entity(str(ids[local]), attributes)
