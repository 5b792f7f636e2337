"""The day loop holds a day's packets once.

The per-agent batches die once concatenated, and the concatenated day
batch dies once ``dispatch_parts`` has split it: when the NT-A handler
runs, only the telescopes' sub-batches (and the capture stores) hold the
day's rows.
"""

import weakref

from repro.net.batch import PacketBatch
from repro.obs import use_journal
from repro.scanners.agent import ScannerAgent
from repro.sim import ScenarioConfig
from repro.sim.scenario import PaperScenario

DAYS = 4

CONFIG = dict(seed=11, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
              phase1_day=1, phase2_day=2, phase3_day=2,
              specific_start_day=3)


def test_day_batches_released_before_handlers(monkeypatch):
    emitted, days = [], []
    concat = PacketBatch.concat
    emit = ScannerAgent.emit_day_batch

    def spy_concat(parts):
        batch = concat(parts)
        days.append(weakref.ref(batch))
        return batch

    def spy_emit(self, day_start, day_end):
        batch = emit(self, day_start, day_end)
        if len(batch):
            emitted.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(PacketBatch, "concat", staticmethod(spy_concat))
    monkeypatch.setattr(ScannerAgent, "emit_day_batch", spy_emit)

    scenario = PaperScenario(ScenarioConfig(**CONFIG))
    handle = scenario.telescope.handle_batch
    entered = []

    def spy_handle(batch):
        entered.append((days[-1]() is None,
                        [ref() is None for ref in emitted]))
        emitted.clear()
        return handle(batch)

    scenario.telescope.handle_batch = spy_handle
    with use_journal(None):
        for day in range(DAYS):
            scenario.run_day(day)

    # Day 0 of this config routes nothing to NT-A.
    assert len(entered) >= DAYS - 1
    for call, (day_dead, agents_dead) in enumerate(entered):
        assert day_dead, f"NT-A call {call}: the day batch is alive"
        assert agents_dead and all(agents_dead), (
            f"NT-A call {call}: a per-agent batch is alive")
