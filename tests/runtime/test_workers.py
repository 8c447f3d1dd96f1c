"""Unit tests for Worker and Node state holders."""

from repro.runtime.node import NodeRuntime
from repro.runtime.workers import Worker


class TestWorkerLifetime:
    def test_never_retired_spans_horizon(self):
        worker = Worker(node_id=0, local_id=0)
        assert worker.lifetime(10.0) == 10.0

    def test_created_late(self):
        worker = Worker(node_id=0, local_id=1, created_at=4.0)
        assert worker.lifetime(10.0) == 6.0

    def test_retired_early(self):
        worker = Worker(node_id=0, local_id=0, created_at=2.0)
        worker.retired = True
        worker.retired_at = 7.0
        assert worker.lifetime(10.0) == 5.0

    def test_lifetime_never_negative(self):
        worker = Worker(node_id=0, local_id=0, created_at=5.0)
        assert worker.lifetime(3.0) == 0.0


class TestNode:
    def make(self, count=3):
        node = NodeRuntime(node_id=0, run_queue=None)
        node.workers = [Worker(node_id=0, local_id=i) for i in range(count)]
        return node

    def test_idle_worker_prefers_first_available(self):
        node = self.make()
        assert node.idle_worker() is node.workers[0]

    def test_busy_and_pending_workers_skipped(self):
        node = self.make()
        node.workers[0].idle = False
        node.workers[1].wake_scheduled = True
        assert node.idle_worker() is node.workers[2]

    def test_retired_workers_never_returned(self):
        node = self.make(count=1)
        node.workers[0].retired = True
        assert node.idle_worker() is None

    def test_active_worker_count(self):
        node = self.make()
        node.workers[1].retired = True
        assert node.active_worker_count == 2
