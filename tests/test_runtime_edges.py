"""Edge cases and failure injection for the live runtime."""

import threading
import time

import pytest

from repro.errors import AmberError, RemoteInvocationError
from repro.runtime import AmberObject, Cluster, current_node


class Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class CustomError(Exception):
    def __init__(self, payload):
        super().__init__("custom")
        self.payload = payload


class Edgy(AmberObject):
    def raise_unpicklable(self):
        raise CustomError(Unpicklable())

    def return_unpicklable(self):
        return Unpicklable()

    def large_payload(self, data):
        return len(data)

    def recurse_via(self, other, depth):
        if depth == 0:
            return current_node()
        return other.recurse_via(self, depth - 1)

    def whoami(self):
        return current_node()


class Spawner(AmberObject):
    """Forks threads from *inside* an operation on a remote node."""

    def __init__(self, target):
        self.target = target

    def fan_out(self, n):
        from repro.runtime.objects import process_kernel
        kernel = process_kernel()
        handles = [kernel.fork(self.target.vaddr, "whoami", (), {})
                   for _ in range(n)]
        return [handle.join(timeout=15) for handle in handles]


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestErrorTransport:
    def test_unpicklable_exception_degrades_gracefully(self, cluster):
        edgy = cluster.create(Edgy, node=1)
        with pytest.raises(RemoteInvocationError) as excinfo:
            edgy.raise_unpicklable()
        assert "CustomError" in str(excinfo.value)

    def test_unpicklable_result_reported(self, cluster):
        edgy = cluster.create(Edgy, node=1)
        with pytest.raises(Exception):
            edgy.return_unpicklable()

    def test_local_unpicklable_result_is_fine(self, cluster):
        # Local invocation: nothing crosses the wire.
        edgy = cluster.create(Edgy, node=0)
        assert isinstance(edgy.return_unpicklable(), Unpicklable)


class TestScale:
    def test_large_argument_payload(self, cluster):
        edgy = cluster.create(Edgy, node=2)
        data = b"x" * (2 << 20)
        assert edgy.large_payload(data) == len(data)

    def test_many_objects_across_nodes(self, cluster):
        handles = [cluster.create(Edgy, node=i % 3) for i in range(60)]
        nodes = [handle.whoami() for handle in handles]
        assert nodes == [i % 3 for i in range(60)]

    def test_ping_pong_recursion_between_nodes(self, cluster):
        a = cluster.create(Edgy, node=1)
        b = cluster.create(Edgy, node=2)
        # a and b invoke each other alternately: 8 nested cross-node
        # activations on the same logical thread.
        assert a.recurse_via(b, 8) in (1, 2)

    def test_nested_fork_from_remote_operation(self, cluster):
        target = cluster.create(Edgy, node=2)
        spawner = cluster.create(Spawner, target, node=1)
        assert spawner.fan_out(4) == [2, 2, 2, 2]


class TestConcurrency:
    def test_concurrent_invocations_from_driver_threads(self, cluster):
        counter_cls = _Count
        counter = cluster.create(counter_cls, node=1)
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    counter.bump()
            except Exception as error:   # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert counter.value() == 40

    def test_move_during_invocation_storm(self, cluster):
        counter = cluster.create(_Count, node=0)
        stop = threading.Event()
        errors = []

        def storm():
            while not stop.is_set():
                try:
                    counter.bump()
                except Exception as error:   # pragma: no cover
                    errors.append(error)

        thread = threading.Thread(target=storm)
        thread.start()
        try:
            for dest in (1, 2, 0, 1):
                cluster.move(counter, dest)
                time.sleep(0.05)
        finally:
            stop.set()
            thread.join()
        assert not errors
        assert cluster.locate(counter) == 1
        assert counter.value() > 0


class _Count(AmberObject):
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def bump(self):
        with self._lock:
            self._value += 1
            return self._value

    def value(self):
        with self._lock:
            return self._value
