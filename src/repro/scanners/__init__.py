"""Synthetic IPv6 scanner ecosystem.

Since the real Internet's scanners are unavailable to a reproduction, this
package builds a generative population calibrated to the paper's observed
characteristics (Tables 3/8, Figures 5/6):

* **identities** — each scanner belongs to an AS with a type (hosting/cloud,
  R&E, Internet Scanner, ISP, ...) and allocates source addresses from a
  covering prefix between /128 (one fixed address) and /30 (the
  AlphaStrike-style spread the paper highlights);
* **strategies** — target generation wired to the public data feeds: BGP
  collectors, TLD zone files, CT logs, the IPv6 hitlist, reverse DNS, and a
  pattern-mining TGA for exploratory scanners;
* **agents** — schedule trigger reactions (burst then exponential decay,
  matching Figs 7/8) and emit per-day Poisson packet batches;
* **population** — the calibrated default population builder.
"""
