import importlib
import os
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

# the CLI tests start child interpreters: let them import this checkout's
# package too when pytest alone put src/ on sys.path
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a worker process running.

    Looks only when a test already loaded multiprocessing, so the check
    itself imports nothing. Leaked processes are terminated, so the next
    test starts clean.
    """
    yield
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        leaked = multiprocessing.active_children()
        for process in leaked:
            process.terminate()
            process.join(timeout=10)
        if leaked:
            pytest.fail(f"worker processes outlived the test: {leaked}", pytrace=False)


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs this process may run on, as the pool sizing reads it.

    Call the returned function with a count, or with None for a platform
    that reports neither an affinity set nor a CPU count.
    """

    def set_cpus(count):
        if count is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return set_cpus


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace ProcessPoolExecutor by a stub that maps in-process; list the stubs made.

    Each stub records its size and whether it was shut down, so no process
    starts.
    """
    import concurrent.futures

    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shut_down = False
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()
            return False

        def map(self, fn, iterable, chunksize=1):
            assert not self.shut_down, "map on a pool that was shut down"
            return map(fn, iterable)

        def shutdown(self, wait=True):
            self.shut_down = True

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return pools


@pytest.fixture
def pool_at_any_work(monkeypatch):
    """Let a Monte-Carlo call open a pool however little work it expects.

    Sets the pool threshold to 0, so min(workers, realizations, CPUs)
    alone decides, as it did before the threshold.
    """
    from hetcache import geometry_sim

    monkeypatch.setattr(geometry_sim, "POOL_MIN_WORK", 0)


@pytest.fixture
def perfbench(monkeypatch):
    """Import a benchmark module by name from ``perfbench/``, which stays read-only.

    Every module loaded from that directory is unloaded afterwards.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]
