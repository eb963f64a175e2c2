"""Tests for repro.service.pipeline (admission, coalescing, batching)."""

from __future__ import annotations

import pytest

from repro.service import ServiceOverloadedError
from repro.service.pipeline import RequestPipeline
from repro.workloads import KSPQuery


def query(query_id, source, target, k=2):
    return KSPQuery(query_id=query_id, source=source, target=target, k=k)


class TestAdmission:
    def test_submit_and_depth(self):
        pipeline = RequestPipeline(capacity=4)
        assert pipeline.empty
        assert pipeline.submit(query(0, 1, 2)) is False
        assert pipeline.depth == 1
        assert not pipeline.empty

    def test_identical_queries_coalesce(self):
        pipeline = RequestPipeline(capacity=4)
        pipeline.submit(query(0, 1, 2))
        assert pipeline.submit(query(1, 1, 2)) is True
        assert pipeline.depth == 1  # one pending answer, two waiters
        assert pipeline.coalesced.value == 1
        assert pipeline.submitted.value == 2

    def test_different_k_does_not_coalesce(self):
        pipeline = RequestPipeline(capacity=4)
        pipeline.submit(query(0, 1, 2, k=2))
        assert pipeline.submit(query(1, 1, 2, k=3)) is False
        assert pipeline.depth == 2

    def test_shedding_at_capacity(self):
        pipeline = RequestPipeline(capacity=2)
        pipeline.submit(query(0, 1, 2))
        pipeline.submit(query(1, 3, 4))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            pipeline.submit(query(2, 5, 6))
        assert excinfo.value.key == (5, 6, 2)
        assert excinfo.value.capacity == 2
        assert pipeline.shed.value == 1

    def test_coalescing_does_not_consume_capacity(self):
        pipeline = RequestPipeline(capacity=1)
        pipeline.submit(query(0, 1, 2))
        # Identical query still admitted at full capacity.
        assert pipeline.submit(query(1, 1, 2)) is True
        assert pipeline.shed.value == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestPipeline(capacity=0)
        with pytest.raises(ValueError):
            RequestPipeline(max_batch_size=0)


class TestBatching:
    def test_fifo_batches_bounded_by_batch_size(self):
        pipeline = RequestPipeline(capacity=8, max_batch_size=2)
        for index in range(3):
            pipeline.submit(query(index, index, index + 10))
        first = pipeline.next_batch()
        assert [pending.key for pending in first] == [(0, 10, 2), (1, 11, 2)]
        second = pipeline.next_batch()
        assert [pending.key for pending in second] == [(2, 12, 2)]
        assert pipeline.next_batch() == []
        assert pipeline.empty

    def test_batch_carries_all_coalesced_waiters(self):
        pipeline = RequestPipeline(capacity=8)
        pipeline.submit(query(0, 1, 2))
        pipeline.submit(query(1, 1, 2))
        pipeline.submit(query(2, 1, 2))
        (pending,) = pipeline.next_batch()
        assert pending.fanout == 3
        assert [waiting.query_id for waiting in pending.queries] == [0, 1, 2]


class TestDeadlineMerge:
    """Coalescing max-merges deadlines; ``None`` (unbounded) is the longest."""

    @pytest.mark.parametrize(
        "first, second, merged",
        [
            (1.0, None, None),  # an unbounded waiter unbounds the slot
            (None, 1.0, None),  # finite onto unbounded stays unbounded
            (1.0, 3.0, 3.0),  # later finite extends earlier finite
            (3.0, 1.0, 3.0),  # earlier finite does not shorten
        ],
    )
    def test_slot_keeps_the_most_patient_deadline(self, first, second, merged):
        pipeline = RequestPipeline(capacity=4)
        pipeline.submit(query(0, 1, 2), now=0.0, deadline=first)
        assert pipeline.submit(query(1, 1, 2), now=0.1, deadline=second) is True
        # now=2.0 is past the 1.0 deadline and inside every merged one.
        (pending,) = pipeline.next_batch(now=2.0)
        assert pipeline.drain_expired() == []
        assert pending.deadline == merged
        assert pending.fanout == 2
