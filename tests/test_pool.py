"""`pool.parallel_map`, the one thread pool behind `develop`'s passes,
`augment`'s samples and the `bench` and `corrupt --sweep` entries."""

import contextvars
import sys
import threading
import time

import numpy as np
import pytest

from rawbench import pool
from rawbench.errors import ParameterError


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_results_come_back_in_input_order(workers):
    # more workers than cores taking items of uneven length from one queue
    # while threads switch every microsecond: an item lost, run twice or
    # returned in another's place shows here
    calls = []

    def square(i):
        calls.append(i)
        time.sleep(1e-4 * (7 * i % 5))
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = pool.parallel_map(square, iter(range(300)), workers)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(300)]
    assert sorted(calls) == list(range(300))


def test_default_is_workers_and_never_more_threads_than_items(monkeypatch):
    threads = set()

    def record(i):
        threads.add(threading.get_ident())
        time.sleep(0.01)
        return i

    monkeypatch.setattr(pool, "WORKERS", 3)
    assert pool.parallel_map(record, range(2)) == [0, 1]
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert pool.parallel_map(record, range(1)) == [0]  # on the caller's thread
    assert threading.get_ident() in threads
    assert pool.parallel_map(record, []) == []


@pytest.mark.parametrize("workers", [1, 3])
def test_failure_in_a_worker_reaches_the_caller(workers):
    def fail_on_7(i):
        if i == 7:
            raise ParameterError(f"item {i} failed")
        return i

    with pytest.raises(ParameterError, match="item 7 failed"):
        pool.parallel_map(fail_on_7, range(20), workers)


@pytest.mark.parametrize("workers", [1, 3])
def test_no_item_starts_after_a_failure(workers):
    # item 0 fails at once; the items already taken wait until it has
    # raised and a while longer, so the pool records the failure before any
    # thread could take another item
    started = []
    raised = threading.Event()

    def fail_first(i):
        started.append(i)
        if i == 0:
            raised.set()
            raise ParameterError("item 0 failed")
        raised.wait(5.0)
        time.sleep(0.2)
        return i

    with pytest.raises(ParameterError, match="item 0 failed"):
        pool.parallel_map(fail_first, range(20), workers)
    assert 0 in started
    assert set(started) <= set(range(workers))


@pytest.mark.parametrize("workers", [1, 3])
def test_errstate_reaches_the_workers(workers):
    def overflow(i):
        np.float64(1e308) * (i + 10.0)
        return np.geterr()["over"]

    with np.errstate(over="ignore"):
        assert pool.parallel_map(overflow, range(6), workers) == ["ignore"] * 6
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            pool.parallel_map(overflow, range(6), workers)


@pytest.mark.parametrize("workers", [1, 3])
def test_each_call_runs_in_a_copy_of_the_callers_context(workers):
    var = contextvars.ContextVar("var", default="caller")

    def set_and_get(i):
        seen = var.get()
        var.set(f"item {i}")
        return seen

    assert pool.parallel_map(set_and_get, range(6), workers) == ["caller"] * 6
    assert var.get() == "caller"
