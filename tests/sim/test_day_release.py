"""The day loop holds a day's packets once.

Every agent emits into its rows of one day batch, and the day batch dies
once ``dispatch_parts`` has split it: when the NT-A handler runs, only
the telescopes' sub-batches (and the capture stores) hold the day's rows.
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
    allocate = PacketBatch.allocate
    emit = ScannerAgent.emit_day_batch

    def spy_allocate(n, origin):
        batch = allocate(n, origin)
        days.append([weakref.ref(batch)]
                    + [weakref.ref(col) for col in vars(batch).values()])
        return batch

    def spy_emit(self, *args):
        batch = emit(self, *args)
        if len(batch):
            emitted.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(PacketBatch, "allocate", staticmethod(spy_allocate))
    monkeypatch.setattr(ScannerAgent, "emit_day_batch", spy_emit)

    scenario = PaperScenario(ScenarioConfig(**CONFIG))
    handle = scenario.telescope.handle_batch
    entered = []

    def spy_handle(batch):
        entered.append(([ref() is None for ref in days[-1]],
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
        assert all(day_dead), (
            f"NT-A call {call}: the day batch or a column of it is alive")
        assert agents_dead and all(agents_dead), (
            f"NT-A call {call}: an agent's rows are alive")
