"""Golden digests for the shared feed views.

Many agents polling the same feeds on a compressed deployment timeline:
BGP announcements and withdrawals, CT issuance, zone files and several
hitlist publications all land inside six days.  The records and journal
digests were computed before the feeds' per-window views were shared, by
the per-agent code; a run must still reproduce them byte for byte.
"""

import hashlib
import io

import numpy as np

from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario

CONFIG = dict(seed=41, duration_days=6, volume_scale=1e-4, n_tail=40,
              phase1_day=1, phase2_day=2, phase3_day=3,
              specific_start_day=4, tls_offset_days=1,
              tpot_hitlist_offset_days=1, tpot_tls_offset_days=2,
              udp_hitlist_offset_days=1, withdraw_after_days=2,
              hitlist_first_cycle_day=1, hitlist_cycle_days=2)

RECORDS_SHA256 = ("a96810c174a1fce68acfd00b1827d7c9"
                  "a39ddbedb64d4a7e34e104c003011101")
JOURNAL_SHA256 = ("1fd4f431ac64e53e7ebd5f76e6f86dea"
                  "48f98a1bf5ed4ec2c40f3fb68729849a")

COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")


def digests() -> tuple[str, str]:
    """sha256 of the three telescopes' records plus ground truth, and of
    the journal bytes, for one run of :data:`CONFIG`."""
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(ScenarioConfig(**CONFIG))
    records = hashlib.sha256()
    for name, telescope in result.telescopes().items():
        records.update(f"{name}:{len(telescope)};".encode())
        for column in COLUMNS:
            records.update(np.ascontiguousarray(getattr(telescope, column)))
        records.update(np.ascontiguousarray(result.truth[name]))
    journal = hashlib.sha256(buffer.getvalue().encode())
    return records.hexdigest(), journal.hexdigest()


def test_digests_match_per_agent_feeds():
    assert digests() == (RECORDS_SHA256, JOURNAL_SHA256)
