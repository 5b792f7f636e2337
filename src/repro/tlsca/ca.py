"""The certificate authority (Let's Encrypt stand-in).

Issues certificates only for proven names (the ACME client performs the
DNS-01 proof), submits every issued certificate to the configured CT logs,
and enforces the "certificates per registered domain per week" rate limit
that capped the paper's subdomain-certificate experiment at 50 names.
"""

from __future__ import annotations

import bisect

from repro._util import WEEK
from repro.dns.records import validate_name
from repro.tlsca.cert import Certificate, DEFAULT_VALIDITY
from repro.tlsca.ctlog import CtLog


class RateLimitExceeded(Exception):
    """Raised when issuance would exceed the per-domain weekly limit."""


def registered_domain(name: str) -> str:
    """Return the eTLD+1 for ``name`` (two-label heuristic, like the paper's
    .com/.net/.org domains)."""
    labels = validate_name(name).split(".")
    if len(labels) < 2:
        raise ValueError(f"{name!r} has no registered domain")
    return ".".join(labels[-2:])


class CertificateAuthority:
    """Issues certificates and logs them to CT."""

    def __init__(
        self,
        name: str = "lets-encrypt",
        ct_logs: list[CtLog] | None = None,
        weekly_limit: int = 50,
        validity: float = DEFAULT_VALIDITY,
    ):
        self.name = name
        self.ct_logs = list(ct_logs or [])
        self.weekly_limit = weekly_limit
        self.validity = validity
        self._issued: list[Certificate] = []
        #: registered domain -> issue times of its certificates, ascending.
        self._issue_times: dict[str, list[float]] = {}
        self._next_serial = 1

    def issued(self) -> tuple[Certificate, ...]:
        return tuple(self._issued)

    def _weekly_count(self, domain: str, at: float) -> int:
        """Certificates issued for ``domain`` after ``at - WEEK``."""
        times = self._issue_times.get(domain, [])
        return len(times) - bisect.bisect_right(times, at - WEEK)

    def issue(self, names: list[str], at: float) -> Certificate:
        """Issue a certificate for already-validated ``names``.

        Rate limiting follows Let's Encrypt: at most ``weekly_limit``
        certificates per registered domain per rolling week.  All names on
        one certificate must share a registered domain (how the telescope's
        certbot plugin batches requests).
        """
        if not names:
            raise ValueError("cannot issue a certificate for zero names")
        domains = {registered_domain(n) for n in names}
        if len(domains) != 1:
            raise ValueError(
                f"all names must share one registered domain, got {sorted(domains)}"
            )
        domain = domains.pop()
        if self._weekly_count(domain, at) >= self.weekly_limit:
            raise RateLimitExceeded(
                f"{self.weekly_limit} certificates already issued for "
                f"{domain} in the past week"
            )
        cert = Certificate(
            serial=self._next_serial,
            names=tuple(names),
            issuer=self.name,
            not_before=at,
            not_after=at + self.validity,
        )
        self._next_serial += 1
        self._issued.append(cert)
        bisect.insort(self._issue_times.setdefault(domain, []), at)
        for log in self.ct_logs:
            log.submit(cert, at)
        return cert
