"""One dispatch per simulated day.

The day loop emits the whole population's day and then partitions it
across the telescopes once, through ``PaperScenario.dispatch_parts``.  A
per-agent dispatch would call it once per emitting agent.
"""

import pytest

from repro.obs import use_journal
from repro.sim import ScenarioConfig
from repro.sim.scenario import PaperScenario

DAYS = 5

CONFIG = dict(seed=7, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
              phase1_day=1, phase2_day=2, phase3_day=3,
              specific_start_day=3, withdraw_after_days=2)


@pytest.fixture
def dispatch_calls(monkeypatch):
    """Counts ``dispatch_parts`` calls (and the packets each carried)."""
    calls = []
    original = PaperScenario.dispatch_parts

    def counted(self, batch):
        calls.append(len(batch))
        return original(self, batch)

    monkeypatch.setattr(PaperScenario, "dispatch_parts", counted)
    return calls


def test_serial_day_dispatches_once(dispatch_calls):
    scenario = PaperScenario(ScenarioConfig(**CONFIG))
    emitted = 0
    with use_journal(None):
        for day in range(DAYS):
            before = len(dispatch_calls)
            emitted += scenario.run_day(day)
            assert len(dispatch_calls) - before <= 1, day
    assert emitted > 0
    assert sum(dispatch_calls) == emitted
