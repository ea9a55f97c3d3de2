"""A durable, crash-safe review queue for uncertain decisions.

Pairs the router refuses to auto-decide land here and wait for a human (or
an oracle in tests) to label them; the re-adaptation worker drains them
back into training.  The queue therefore sits on the crash boundary
between serving and training, and its contract is strict:

* **Append-only JSONL segments.**  Items are numbered by a monotone
  ``seq`` and stored as one JSON object per line in
  ``segment-<nnnnnnnn>.jsonl`` files of bounded size.  Every segment write
  goes through :meth:`~repro.artifacts.ArtifactStore.write` — temp file +
  ``os.replace`` + SHA-256 into ``MANIFEST.json`` — so a ``kill -9``
  mid-append can never tear a segment, and bit rot is detected at read
  time, not silently served.
* **Exactly-once dequeue via acked offsets.**  Consumers read
  :meth:`pending` (every item with ``seq`` past the durable cursor, in
  order) and only :meth:`ack` after their work is fully committed.  A
  consumer that crashes mid-cycle re-reads the same items on restart; a
  consumer that acks twice is a no-op.  Nothing is ever popped
  destructively.
* **Corruption is loud.**  A segment that fails its checksum or JSONL
  parse is quarantined to ``*.corrupt`` by the store (never deleted, never
  skipped silently), counted on the ``risk.queue.corrupt_segments``
  counter, and reported through :meth:`stats` so ``repro risk-report``
  shows the loss.

All mutation happens under the store's inter-process ``queue`` lock, so a
serving daemon appending and a worker acking from another process cannot
interleave a torn update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..artifacts import ArtifactCorruptError, ArtifactStore
from ..telemetry import REGISTRY

#: Segment file name pattern; the index is the segment ordinal.
SEGMENT_PATTERN = "segment-{:08d}.jsonl"
#: Durable consumer cursor: ``{"acked_through": seq}``.
CURSOR_NAME = "cursor.json"
#: Default cap on items per segment before rolling to the next file.
SEGMENT_MAX_ITEMS = 256


@dataclass(frozen=True)
class ReviewItem:
    """One queued decision awaiting review: durable ``seq`` + payload."""

    seq: int
    item: Dict[str, Any]


def _segment_index(name: str) -> int:
    return int(name[len("segment-"):-len(".jsonl")])


class ReviewQueue:
    """Durable review queue over one :class:`~repro.artifacts.ArtifactStore`.

    Safe to construct over an existing directory at any time — all state
    (segments, cursor) is replayed from disk, which is exactly what makes
    the queue survive a ``kill -9`` of either producer or consumer.
    """

    def __init__(self, directory: Union[str, Path],
                 segment_max_items: int = SEGMENT_MAX_ITEMS):
        if segment_max_items < 1:
            raise ValueError("segment_max_items must be >= 1")
        self.store = ArtifactStore(Path(directory))
        self.segment_max_items = segment_max_items
        #: Segments quarantined during this object's reads (names).
        self.corrupt_segments: List[str] = []

    # -- durable state ------------------------------------------------------ #
    def _segment_names(self) -> List[str]:
        root = self.store.root
        if not root.exists():
            return []
        names = [p.name for p in root.glob("segment-*.jsonl")
                 if not self.store.is_internal(p)]
        return sorted(names, key=_segment_index)

    def _read_segment(self, name: str) -> Optional[List[Dict[str, Any]]]:
        """Records of one segment, or ``None`` if it was quarantined."""
        def parse(path: Path) -> List[Dict[str, Any]]:
            records = []
            for line in path.read_text().splitlines():
                if line.strip():
                    records.append(json.loads(line))
            return records
        try:
            return self.store.read(name, parse)
        except FileNotFoundError:
            # Segment not started yet (append filling a fresh index).
            return []
        except ArtifactCorruptError:
            # store.read already quarantined to *.corrupt and logged at
            # WARNING; surface the loss on the metrics registry too.
            self.corrupt_segments.append(name)
            REGISTRY.counter("risk.queue.corrupt_segments").inc()
            return None

    def acked_through(self) -> int:
        """Highest durably-acked ``seq`` (``-1`` before any ack)."""
        try:
            cursor = self.store.read(CURSOR_NAME,
                                     lambda p: json.loads(p.read_text()))
        except FileNotFoundError:
            return -1
        except ArtifactCorruptError:
            # A corrupt cursor re-delivers (at-least-once floor) rather
            # than losing items; the quarantined file keeps the evidence.
            REGISTRY.counter("risk.queue.corrupt_segments").inc()
            return -1
        return int(cursor.get("acked_through", -1))

    def next_seq(self) -> int:
        """The ``seq`` the next appended item will receive."""
        names = self._segment_names()
        for name in reversed(names):
            records = self._read_segment(name)
            if records:
                return int(records[-1]["seq"]) + 1
            if records is None:
                # Quarantined tail segment: its seqs are unrecoverable, so
                # restart numbering from the segment boundary below it —
                # seqs stay monotone because earlier segments are full.
                return _segment_index(name) * self.segment_max_items
        return 0

    # -- producer ------------------------------------------------------------ #
    def append(self, items: Iterable[Dict[str, Any]]) -> List[int]:
        """Durably append ``items``; returns their assigned ``seq`` s."""
        items = list(items)
        if not items:
            return []
        with self.store.lock("queue"):
            seq = self.next_seq()
            assigned: List[int] = []
            index = seq // self.segment_max_items
            while items:
                name = SEGMENT_PATTERN.format(index)
                existing = self._read_segment(name) or []
                room = self.segment_max_items - len(existing)
                take, items = items[:room], items[room:]
                for item in take:
                    existing.append({"seq": seq, "item": item})
                    assigned.append(seq)
                    seq += 1
                payload = "\n".join(json.dumps(r, sort_keys=True)
                                    for r in existing) + "\n"
                self.store.write(name, lambda tmp, text=payload:
                                 tmp.write_text(text))
                index += 1
            REGISTRY.counter("risk.queue.appended").inc(len(assigned))
            return assigned

    # -- consumer ------------------------------------------------------------ #
    def pending(self) -> List[ReviewItem]:
        """Every un-acked item in ``seq`` order (non-destructive read)."""
        acked = self.acked_through()
        out: List[ReviewItem] = []
        for name in self._segment_names():
            records = self._read_segment(name)
            if records is None:
                continue
            for record in records:
                seq = int(record["seq"])
                if seq > acked:
                    out.append(ReviewItem(seq, record["item"]))
        out.sort(key=lambda r: r.seq)
        return out

    def ack(self, through_seq: int) -> None:
        """Durably mark every ``seq <= through_seq`` consumed (idempotent).

        The cursor only moves forward: re-acking an older offset after a
        replay is a no-op, which is what makes the dequeue exactly-once
        across consumer crashes.
        """
        with self.store.lock("queue"):
            current = self.acked_through()
            if through_seq <= current:
                return
            self.store.write_json(CURSOR_NAME,
                                  {"acked_through": int(through_seq)})
            REGISTRY.counter("risk.queue.acked").inc(through_seq - current)

    # -- introspection ------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.pending())

    def stats(self) -> Dict[str, Any]:
        """Durable queue state for ``repro risk-report`` and the router."""
        pending = self.pending()
        acked = self.acked_through()
        return {
            "directory": str(self.store.root),
            "segments": len(self._segment_names()),
            "acked_through": acked,
            "pending": len(pending),
            "appended": (max((r.seq for r in pending), default=acked) + 1),
            "corrupt_segments": sorted(set(self.corrupt_segments)),
        }


__all__ = ["CURSOR_NAME", "ReviewItem", "ReviewQueue", "SEGMENT_MAX_ITEMS",
           "SEGMENT_PATTERN"]
