"""Fakes shared by the service tests."""

from __future__ import annotations

from concurrent.futures import Future

import pytest


class ManualExecutor:
    """An executor whose futures the test completes by hand — makes the
    in-flight window deterministic instead of racing a real compile.

    Its futures start RUNNING, so ``cancel`` fails as on a busy worker;
    with ``pending`` set they stay PENDING, so ``cancel`` succeeds.
    """

    def __init__(self):
        self.pending = False
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        future = Future()
        if not self.pending:
            future.set_running_or_notify_cancel()
        self.submitted.append((fn, args, future))
        return future

    def complete_all(self):
        # a retry resubmits from a done callback: the loop reaches it too
        for fn, args, future in self.submitted:
            if not future.done():
                future.set_result(fn(*args))

    def complete_last(self):
        fn, args, future = self.submitted[-1]
        future.set_result(fn(*args))

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def manual_executor() -> ManualExecutor:
    return ManualExecutor()
