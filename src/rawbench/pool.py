"""The package's one thread pool. `parallel_map` runs `develop`'s bands and
chunks and `augment`'s samples on WORKERS threads, and the entries of
`bench` and `corrupt --sweep` on --jobs threads. numpy ufuncs,
scipy.ndimage, OpenBLAS and file writes release the GIL, so the threads
compute at the same time. Every item writes only its own rows or files and
draws from its own random stream, so the thread count never changes a
result.
"""

import contextvars
import os
import threading


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# The default thread count: the CPUs this process may run on. There is no
# option for it.
WORKERS = _usable_cpus()


def parallel_map(fn, items, workers: int | None = None) -> list:
    """[fn(item) for item in items], on `workers` threads (WORKERS when
    None), never more threads than items; with one thread or fewer, on the
    caller's thread.

    Each thread takes the next item when done with its last, so that a
    thread slowed down by other work takes fewer. Each call runs in a copy
    of the caller's context, so that np.errstate (a context variable) holds
    in the pool's threads too. The results come back in the order of
    `items`. The first failure is raised here once the calls already
    running have returned; no item starts after it.
    """
    items = list(items)
    workers = min(WORKERS if workers is None else workers, len(items))
    context = contextvars.copy_context()
    if workers <= 1:
        return [context.copy().run(fn, item) for item in items]
    results = [None] * len(items)
    todo = enumerate(items)
    failures = []
    lock = threading.Lock()  # over todo and failures

    def drain():
        while True:
            with lock:
                job = None if failures else next(todo, None)
            if job is None:
                return
            index, item = job
            try:
                results[index] = context.copy().run(fn, item)
            except BaseException as e:
                with lock:
                    failures.append(e)
                return

    threads = [threading.Thread(target=drain) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results
