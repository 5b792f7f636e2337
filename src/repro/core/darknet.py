"""Passive darknet telescopes.

Two deployment styles from §3.1:

* **dedicated**: a fixed prefix that is entirely dark (NT-B's /48);
* **live-network**: capture whatever falls into the *unused* portions of a
  live network's covering prefix (NT-A's and NT-C's /32s) — the monitored
  space is dynamic, shrinking whenever the operator assigns a subnet.

Darknets never respond; they only capture packets.
"""

from __future__ import annotations

from repro.core.capture import PacketCapturer
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.obs import stage


class DarknetTelescope:
    """A passive telescope over the unused parts of ``covering_prefix``."""

    def __init__(self, name: str, covering_prefix: IPv6Prefix):
        self.name = name
        self.covering_prefix = covering_prefix
        self._assigned: list[IPv6Prefix] = []
        self.capturer = PacketCapturer(name=f"{name}-capture")
        self.captured_count = 0
        self.ignored_count = 0

    def assign(self, prefix: IPv6Prefix) -> None:
        """Mark ``prefix`` as in production use — its traffic is not dark."""
        if not self.covering_prefix.contains_prefix(prefix):
            raise ValueError(
                f"{prefix} is not within the telescope's {self.covering_prefix}"
            )
        self._assigned.append(prefix)

    def unassign(self, prefix: IPv6Prefix) -> None:
        """Return a previously assigned subnet to the dark pool."""
        self._assigned.remove(prefix)

    @property
    def assigned(self) -> tuple[IPv6Prefix, ...]:
        return tuple(self._assigned)

    def monitors(self, address: int) -> bool:
        """Is ``address`` within the (currently) dark, monitored space?"""
        if address not in self.covering_prefix:
            return False
        return not any(address in assigned for assigned in self._assigned)

    def dark_fraction(self) -> float:
        """Fraction of the covering prefix currently dark (approximate:
        assumes assigned subnets do not overlap)."""
        total = self.covering_prefix.num_addresses
        used = sum(p.num_addresses for p in self._assigned)
        return max(0.0, 1.0 - used / total)

    def handle_batch(self, batch: PacketBatch) -> None:
        """Capture the rows of ``batch`` that target monitored dark space.

        A vectorized :meth:`monitors` over the batch; dark rows go to the
        telescope's capturer.
        """
        if len(batch) == 0:
            return
        with stage("darknet.handle_batch", telescope=self.name,
                   packets=len(batch)):
            dark = batch.mask_dst_in(self.covering_prefix)
            for assigned in self._assigned:
                dark &= ~batch.mask_dst_in(assigned)
            captured = batch.select(dark)
            self.captured_count += len(captured)
            self.ignored_count += len(batch) - len(captured)
            self.capturer.capture_batch(captured)
