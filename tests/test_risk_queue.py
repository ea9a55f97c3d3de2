"""Durable review queue: crash-safety, exactly-once dequeue, corruption.

The property tests model the real consumer protocol: arbitrary
interleavings of appends, acks, and simulated crashes (reconstructing the
queue object from disk, which is all a ``kill -9`` leaves behind) must
deliver every item exactly once, in order.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import QUARANTINE_SUFFIX
from repro.risk import ReviewQueue
from repro.risk.adapt import corrupt_tail_segment
from repro.risk.queue import CURSOR_NAME


def _items(count, start=0):
    return [{"payload": i} for i in range(start, start + count)]


class TestReviewQueueBasics:
    def test_append_assigns_monotone_seqs(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        assert queue.append(_items(3)) == [0, 1, 2]
        assert queue.append(_items(2, start=3)) == [3, 4]
        assert [r.seq for r in queue.pending()] == [0, 1, 2, 3, 4]

    def test_empty_queue(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        assert queue.pending() == []
        assert queue.acked_through() == -1
        assert len(queue) == 0
        assert queue.append([]) == []

    def test_pending_is_non_destructive(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        queue.append(_items(4))
        assert len(queue.pending()) == 4
        assert len(queue.pending()) == 4  # reading consumes nothing

    def test_ack_is_forward_only_and_idempotent(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        queue.append(_items(5))
        queue.ack(2)
        assert [r.seq for r in queue.pending()] == [3, 4]
        queue.ack(2)   # re-ack: no-op
        queue.ack(0)   # older offset: no-op, cursor never rewinds
        assert queue.acked_through() == 2
        queue.ack(4)
        assert queue.pending() == []

    def test_segments_roll_at_capacity(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q", segment_max_items=3)
        queue.append(_items(8))
        assert len(queue._segment_names()) == 3
        queue.append(_items(1, start=8))
        # item 8 fills segment 2 (seqs 6..8) before a new segment starts
        assert len(queue._segment_names()) == 3
        assert [r.seq for r in queue.pending()] == list(range(9))

    def test_replay_after_simulated_crash(self, tmp_path):
        producer = ReviewQueue(tmp_path / "q")
        producer.append(_items(6))
        producer.ack(1)
        # kill -9: all that survives is the directory
        replayed = ReviewQueue(tmp_path / "q")
        assert [r.seq for r in replayed.pending()] == [2, 3, 4, 5]
        assert replayed.next_seq() == 6

    def test_items_round_trip_payloads(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        payload = {"left": {"id": "l0", "attributes": {"name": "a"}},
                   "probability": 0.5, "label": None}
        queue.append([payload])
        assert queue.pending()[0].item == payload

    def test_stats_shape(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q", segment_max_items=2)
        queue.append(_items(5))
        queue.ack(0)
        stats = queue.stats()
        assert stats["segments"] == 3
        assert stats["pending"] == 4
        assert stats["acked_through"] == 0
        assert stats["corrupt_segments"] == []

    def test_bad_segment_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ReviewQueue(tmp_path / "q", segment_max_items=0)


class TestReviewQueueCorruption:
    def test_corrupt_segment_quarantined_loudly(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q", segment_max_items=4)
        queue.append(_items(6))  # two segments
        name = corrupt_tail_segment(queue)
        assert name is not None
        fresh = ReviewQueue(tmp_path / "q", segment_max_items=4)
        pending = fresh.pending()
        # the intact first segment still replays; the rotted tail is lost
        # loudly, never silently served
        assert [r.seq for r in pending] == [0, 1, 2, 3]
        assert name in fresh.stats()["corrupt_segments"]
        quarantined = list((tmp_path / "q").glob(f"*{QUARANTINE_SUFFIX}*"))
        assert quarantined, "evidence file must be preserved"

    def test_append_after_quarantined_tail_keeps_seqs_monotone(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q", segment_max_items=4)
        queue.append(_items(6))  # seqs 0..5, tail segment holds 4..5
        corrupt_tail_segment(queue)
        fresh = ReviewQueue(tmp_path / "q", segment_max_items=4)
        assigned = fresh.append(_items(3, start=6))
        # numbering restarts at the damaged segment's boundary (4), so no
        # live seq ever collides with a surviving one
        assert assigned == [4, 5, 6]
        assert [r.seq for r in fresh.pending()] == [0, 1, 2, 3, 4, 5, 6]

    def test_corrupt_cursor_redelivers(self, tmp_path):
        queue = ReviewQueue(tmp_path / "q")
        queue.append(_items(3))
        queue.ack(1)
        (tmp_path / "q" / "cursor.json").write_text("{ torn")
        fresh = ReviewQueue(tmp_path / "q")
        # at-least-once floor: a rotten cursor re-delivers rather than
        # losing items
        assert fresh.acked_through() == -1
        assert [r.seq for r in fresh.pending()] == [0, 1, 2]
        # ...and names the quarantined cursor where risk-report reads it
        assert CURSOR_NAME in fresh.stats()["corrupt_segments"]


class TestReviewQueueProperties:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 5)),
            st.tuples(st.just("consume"), st.integers(1, 5)),
            st.tuples(st.just("crash"), st.just(0)),
        ), min_size=1, max_size=12))
    def test_exactly_once_in_order_across_crashes(self, tmp_path_factory,
                                                  ops):
        """Any append/consume/crash interleaving delivers each item exactly
        once, in seq order, with no gaps."""
        root = tmp_path_factory.mktemp("prop") / "q"
        queue = ReviewQueue(root, segment_max_items=3)
        next_payload = 0
        consumed = []
        for op, count in ops:
            if op == "append":
                items = _items(count, start=next_payload)
                next_payload += count
                seqs = queue.append(items)
                assert seqs == sorted(seqs)
            elif op == "consume":
                pending = queue.pending()[:count]
                if pending:
                    consumed.extend(r.item["payload"] for r in pending)
                    queue.ack(pending[-1].seq)
            else:  # crash: only the directory survives
                queue = ReviewQueue(root, segment_max_items=3)
        # drain whatever is left after the final op
        tail = queue.pending()
        consumed.extend(r.item["payload"] for r in tail)
        assert consumed == list(range(next_payload))

    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(st.integers(1, 7), min_size=1, max_size=6),
           cap=st.integers(1, 5))
    def test_segment_invariant(self, tmp_path_factory, batches, cap):
        """Segment ``i`` holds exactly the seqs in [i*cap, (i+1)*cap)."""
        root = tmp_path_factory.mktemp("seg") / "q"
        queue = ReviewQueue(root, segment_max_items=cap)
        total = 0
        for count in batches:
            queue.append(_items(count, start=total))
            total += count
        for name in queue._segment_names():
            index = int(name[len("segment-"):-len(".jsonl")])
            records = queue._read_segment(name)
            seqs = [r["seq"] for r in records]
            assert seqs == sorted(seqs)
            assert all(index * cap <= s < (index + 1) * cap for s in seqs)


class TestSegmentFormat:
    def test_segments_are_plain_jsonl(self, tmp_path):
        # The on-disk format is greppable JSONL — an operator can read the
        # queue with standard tools.
        queue = ReviewQueue(tmp_path / "q")
        queue.append(_items(2))
        text = (tmp_path / "q" / "segment-00000000.jsonl").read_text()
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["seq"] for r in records] == [0, 1]
