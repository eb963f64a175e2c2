"""Unit tests for the execution-backend layer (:mod:`repro.exec`)."""

from __future__ import annotations

import pytest

from repro.exec import EXECUTORS, Executor, default_executor_name, resolve_executor
from repro.exec.base import SerialExecutor, make_executor, validate_executor_name
from repro.exec.process import ProcessExecutor
from repro.graph.errors import ExecutorError, ExecutorTaskError

ALL_BACKENDS = list(EXECUTORS)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


def _unpicklable_result(x):
    import threading

    return threading.Lock() if x == 2 else x


class _Accumulator:
    """Stateful worker used by the group tests."""

    def __init__(self, start):
        self.value = start
        self.calls = 0

    def add(self, amount):
        self.value += amount
        self.calls += 1
        return self.value

    def get(self):
        return self.value

    def boom(self):
        raise RuntimeError("state exploded")


def _make_accumulator(start):
    return _Accumulator(start)


def _picky_factory(start):
    if start < 0:
        raise ValueError(f"cannot build from {start}")
    return _Accumulator(start)


@pytest.fixture(params=ALL_BACKENDS)
def executor(request):
    ex = make_executor(request.param, 3)
    yield ex
    ex.close()


class TestFactoryHelpers:
    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(ExecutorError, match="serial, process"):
            validate_executor_name("gpu")

    def test_make_executor_types(self):
        assert EXECUTORS == ("serial", "process")
        assert isinstance(make_executor("serial"), SerialExecutor)
        with pytest.raises(ExecutorError):
            make_executor("thread")
        ex = make_executor("process")
        assert isinstance(ex, ProcessExecutor)
        ex.close()

    def test_workers_must_be_positive(self):
        with pytest.raises(ExecutorError):
            SerialExecutor(0)

    def test_default_executor_name_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_name() == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert default_executor_name() == "process"
        for retired in ("thread", "gpu"):
            monkeypatch.setenv("REPRO_EXECUTOR", retired)
            with pytest.raises(ExecutorError):
                default_executor_name()

    def test_resolve_name_is_owned(self):
        ex, owned = resolve_executor("serial", workers=2)
        assert owned and isinstance(ex, SerialExecutor)
        ex.close()

    def test_resolve_instance_is_shared(self):
        shared = SerialExecutor()
        ex, owned = resolve_executor(shared)
        assert ex is shared and not owned
        shared.close()

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ExecutorError):
            resolve_executor(42)  # type: ignore[arg-type]


class TestMap:
    def test_map_preserves_order(self, executor: Executor):
        assert executor.map(_square, list(range(10))) == [i * i for i in range(10)]

    def test_map_empty(self, executor: Executor):
        assert executor.map(_square, []) == []

    def test_map_single_item(self, executor: Executor):
        assert executor.map(_square, [7]) == [49]

    def test_map_error_propagates_uniformly(self, executor: Executor):
        # Every backend funnels task failures through ExecutorTaskError so
        # callers are backend-agnostic on the error path; in-process
        # backends chain the original exception.
        with pytest.raises(ExecutorTaskError) as info:
            executor.map(_fail_on_three, [1, 2, 3, 4])
        assert "bad item 3" in str(info.value)
        assert info.value.remote_type == "ValueError"
        if executor.name != "process":
            assert isinstance(info.value.__cause__, ValueError)

    def test_map_after_close_raises(self):
        ex = make_executor("serial")
        ex.close()
        with pytest.raises(ExecutorError):
            ex.map(_square, [1])


class TestWorkerGroups:
    # Stateful groups exist only across a process boundary; the in-process
    # backends' refusal is pinned by TestReplicaSet below.  (One param, kept
    # so the ``[process]`` test ids stay what they were.)
    @pytest.fixture(params=["process"])
    def executor(self, request):
        ex = make_executor(request.param, 3)
        yield ex
        ex.close()

    def test_states_are_resident_across_calls(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [100, 200])
        assert group.num_slots == 2
        assert group.call(0, "add", 5) == 105
        assert group.call(0, "add", 5) == 110  # state persisted
        assert group.call(1, "get") == 200
        group.close()

    def test_call_each_orders_results(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [0, 0, 0, 0, 0])
        calls = [(slot, "add", (slot + 1,)) for slot in range(5)]
        assert group.call_each(calls) == [1, 2, 3, 4, 5]
        group.close()

    def test_broadcast_hits_every_slot(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [1, 2, 3])
        assert group.broadcast("get") == [1, 2, 3]
        group.close()

    def test_state_error_is_transported(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [0])
        with pytest.raises(ExecutorTaskError) as info:
            group.call(0, "boom")
        assert "state exploded" in str(info.value)
        assert info.value.remote_type == "RuntimeError"
        group.close()

    def test_unknown_slot_rejected(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [0])
        with pytest.raises(ExecutorError):
            group.call(5, "get")
        group.close()

    def test_closed_group_rejects_calls(self, executor: Executor):
        group = executor.spawn_group(_make_accumulator, [0])
        group.close()
        with pytest.raises(ExecutorError):
            group.call(0, "get")

    def test_group_outliving_closed_executor_raises_executor_error(self):
        # A group whose executor closed raises ExecutorError, not a
        # transport-specific exception (broken pipe, closed handle).
        ex = make_executor("process", 2)
        group = ex.spawn_group(_make_accumulator, [0, 0])
        ex.close()
        with pytest.raises(ExecutorError):
            group.call_each([(0, "get", ()), (1, "get", ())])


class TestReplicaSet:
    def test_rejects_in_process_backends(self):
        # In-process "replicas" would alias one bundle across slots and
        # re-apply sync deltas once per slot against the shared graph.
        from repro.exec import ReplicaSet
        from repro.graph import DynamicGraph

        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        ex = make_executor("serial", 2)
        with pytest.raises(ExecutorError, match="process backend"):
            ex.spawn_group(_make_accumulator, [0])
        replicas = ReplicaSet(ex, _make_accumulator, graph)
        with pytest.raises(ExecutorError, match="process backend"):
            replicas.ensure(lambda: 0)
        assert not replicas.active
        ex.close()


class TestProcessBackend:
    def test_remote_error_carries_type_and_traceback(self):
        with ProcessExecutor(2) as ex:
            group = ex.spawn_group(_make_accumulator, [0])
            with pytest.raises(ExecutorTaskError) as info:
                group.call(0, "boom")
            assert info.value.remote_type == "RuntimeError"
            assert "state exploded" in str(info.value)
            assert "boom" in info.value.remote_traceback

    def test_workers_start_lazily_and_close(self):
        ex = ProcessExecutor(2)
        assert not ex.started
        assert ex.map(_square, [2, 3]) == [4, 9]
        assert ex.started
        ex.close()
        assert not ex.healthy()
        ex.close()  # idempotent

    def test_slots_pinned_round_robin(self):
        # More slots than workers: slots wrap onto the same processes but
        # keep independent states.
        with ProcessExecutor(2) as ex:
            group = ex.spawn_group(_make_accumulator, [10, 20, 30])
            assert group.broadcast("get") == [10, 20, 30]
            group.call(2, "add", 1)
            assert group.broadcast("get") == [10, 20, 31]

    def test_context_manager_closes(self):
        with ProcessExecutor(1) as ex:
            ex.map(_square, [1])
        assert not ex.healthy()

    def test_unpicklable_item_does_not_desync_the_pipes(self):
        # Outgoing messages are pickled in full before any byte is written,
        # so an unpicklable work item raises cleanly and later calls see
        # fresh replies, not a stale queue.
        import threading

        with ProcessExecutor(2) as ex:
            with pytest.raises(ExecutorTaskError) as info:
                ex.map(_square, [1, threading.Lock(), 3, 4])
            assert "cannot pickle" in str(info.value)
            assert ex.map(_square, [10, 20, 30, 40]) == [100, 400, 900, 1600]

    def test_unpicklable_group_payload_raises_cleanly(self):
        import threading

        with ProcessExecutor(2) as ex:
            with pytest.raises(ExecutorTaskError):
                ex.spawn_group(_make_accumulator, [0, threading.Lock()])
            assert ex.map(_square, [2]) == [4]

    def test_unpicklable_result_does_not_kill_the_worker(self):
        # The worker pickles the reply before writing; a TypeError there
        # must surface as ExecutorTaskError with the executor still alive.
        with ProcessExecutor(2) as ex:
            with pytest.raises(ExecutorTaskError):
                ex.map(_unpicklable_result, [1, 2, 3])
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_failed_spawn_does_not_poison_the_executor(self):
        # A failing factory on one slot must drain every worker's init
        # reply and drop the states that did build — the executor stays
        # usable for later maps and groups.
        with ProcessExecutor(2) as ex:
            with pytest.raises(ExecutorTaskError) as info:
                ex.spawn_group(_picky_factory, [-1, 5])
            assert info.value.remote_type == "ValueError"
            assert ex.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            group = ex.spawn_group(_picky_factory, [7, 8])
            assert group.broadcast("get") == [7, 8]
