"""Percentile sample rule and span self-time attribution."""

import math

import pytest

from perf.stats import (MIN_BEYOND, InsufficientSamples, percentile,
                        self_times, spans_under)


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    for count in (needed - 1, needed, needed + 1):
        values = [float(i) for i in range(count)]
        if count < needed:
            with pytest.raises(InsufficientSamples):
                percentile(values, q)
            continue
        value = percentile(values, q)
        assert sum(1 for v in values if v > value) >= MIN_BEYOND


def test_percentile_is_nearest_rank_over_unsorted_input():
    values = [float(v) for v in range(100, 0, -1)]  # 100..1
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    # Failed requests enter as +inf: once they are the majority, the
    # median misses every latency limit.
    assert percentile([1.0] * 10 + [float("inf")] * 10, 50) == 1.0
    assert math.isinf(percentile([1.0] * 9 + [float("inf")] * 11, 50))


def _span(span_id, name, start, end, parent=None):
    return {"type": "span", "id": span_id, "name": name, "start": start,
            "duration": end - start, "parent": parent, "attrs": {}}


def test_self_times_add_up_to_wall():
    records = [
        _span("r", "perf.run", 0.0, 10.0),
        _span("a", "perf.blocker", 1.0, 4.0, "r"),
        _span("c", "perf.data.read", 2.0, 3.0, "a"),
        _span("b", "perf.engine", 5.0, 9.0, "r"),
        _span("d", "serve.batch", 6.0, 7.0, "b"),
        _span("e", "serve.batch", 7.5, 8.0, "b"),
        {"type": "event", "id": "x", "name": "serve.batch", "start": 6.5,
         "duration": 0.0, "parent": "b", "attrs": {}},
    ]
    result = self_times(records, "perf.run")
    assert result["wall"] == 10.0
    assert result["unattributed"] == pytest.approx(3.0)
    assert result["self"] == pytest.approx({
        "perf.blocker": 2.0, "perf.data.read": 1.0, "perf.engine": 2.5,
        "serve.batch": 1.5})
    assert result["total"]["serve.batch"] == pytest.approx(1.5)
    assert result["count"] == {"perf.blocker": 1, "perf.data.read": 1,
                               "perf.engine": 1, "serve.batch": 2}
    assert (sum(result["self"].values()) + result["unattributed"]
            == pytest.approx(result["wall"]))


def test_overlapping_children_cover_their_union():
    records = [
        _span("r", "perf.run", 0.0, 10.0),
        _span("a", "perf.request", 1.0, 5.0, "r"),
        _span("b", "perf.request", 3.0, 7.0, "r"),
        _span("c", "perf.request", 9.0, 12.0, "r"),  # runs past the root
    ]
    assert self_times(records, "perf.run")["unattributed"] == \
        pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_needs_exactly_one_root():
    with pytest.raises(ValueError):
        self_times([_span("a", "perf.engine", 0.0, 1.0)], "perf.run")


def test_spans_under_finds_every_descendant():
    records = [
        _span("r", "perf.run", 0.0, 10.0),
        _span("cold", "perf.engine.cold", 1.0, 4.0, "r"),
        _span("run", "serve.run", 1.0, 4.0, "cold"),
        _span("lookup", "serve.cache.lookup", 1.0, 2.0, "run"),
        _span("warm", "perf.engine.warm", 5.0, 6.0, "r"),
        _span("lookup2", "serve.cache.lookup", 5.0, 6.0, "warm"),
    ]
    names = {r["id"] for r in spans_under(records, "perf.engine.cold")}
    assert names == {"run", "lookup"}
