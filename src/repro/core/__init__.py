"""The paper's primary contribution: proactive and passive IPv6 telescopes.

* :mod:`repro.core.features` — the attraction/reaction feature vocabulary
  (Table 2's column headers and §5.4's letter codes).
* :mod:`repro.core.honeyprefix` — honeyprefix configurations and the
  canonical 27-prefix deployment of Table 2.
* :mod:`repro.core.twinklenet` — the low-interaction multi-protocol
  IP-aliasing honeypot (Table 7 semantics).
* :mod:`repro.core.tpot` — the high-interaction honeypot stack: T-Pot
  containers (Table 5), DNAT gateway, 6-to-4 reverse proxy.
* :mod:`repro.core.darknet` — passive darknet telescopes.
* :mod:`repro.core.capture` — packet capture into analysis-ready records.
* :mod:`repro.core.proactive` — the orchestrator wiring BGP, DNS, TLS,
  hitlist, honeypots, and capture together.
"""
