import time

import pytest
from hypothesis import Phase, settings

from eisen.eisenstein import EisensteinTable
from eisen.replicate import gekeler_scan
from helpers import recording_ddf_calls

# hypothesis's explain phase reruns a failing example many times to report
# which parts of it matter; on the exact-arithmetic tests here that took
# 40-89 s per failure, so the suite reports the shrunk example without it
settings.register_profile("no-explain", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no-explain")


class TimedTable:
    """Session-wide expansion table that remembers how long it took to build.

    ``ensure(k)`` extends lazily; acceptance tests fold ``build_seconds`` into
    the runtime budget of the criteria that rely on the shared table, so no
    budget is met by hiding setup cost in a fixture.
    """

    def __init__(self) -> None:
        self.table = EisensteinTable()
        self.build_seconds = 0.0

    def ensure(self, k_max: int) -> EisensteinTable:
        started = time.perf_counter()
        self.table.extend(k_max)
        self.build_seconds += time.perf_counter() - started
        return self.table


@pytest.fixture(scope="session")
def shared_table() -> TimedTable:
    return TimedTable()


@pytest.fixture(scope="session")
def scan_446(shared_table):
    """One ``gekeler_scan(446)`` for the tests that only observe it: its report and every DDF call it made.

    The calls are ``recording_ddf_calls``'s (f, p, mask, returned), in call order.
    """
    with recording_ddf_calls() as calls:
        report = gekeler_scan(446, shared_table.ensure(446))
    return report, calls
