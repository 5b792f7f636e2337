"""Tests for certificates, CT logs, the CA, and the ACME DNS-01 flow."""

import pytest

from repro._util import DAY, WEEK
from repro.dns.registry import Registrar, TldRegistry
from repro.dns.resolver import Resolver
from repro.tlsca.acme import AcmeClient, ChallengeFailed
from repro.tlsca.ca import (
    CertificateAuthority,
    RateLimitExceeded,
    registered_domain,
)
from repro.tlsca.cert import Certificate
from repro.tlsca.ctlog import CtLog


@pytest.fixture
def env():
    registrar = Registrar()
    registrar.add_tld(TldRegistry("com"))
    registrar.register_domain("honey.com", at=0.0)
    resolver = Resolver([registrar])
    log = CtLog()
    ca = CertificateAuthority(ct_logs=[log], weekly_limit=3)
    client = AcmeClient(ca, registrar, resolver)
    return registrar, resolver, log, ca, client


class TestCertificate:
    def test_validity_window(self):
        cert = Certificate(1, ("a.com",), "ca", 100.0, 200.0)
        assert cert.valid_at(150.0)
        assert not cert.valid_at(200.0)
        assert not cert.valid_at(50.0)

    def test_covers(self):
        cert = Certificate(1, ("a.com", "www.a.com"), "ca", 0.0, 1.0)
        assert cert.covers("WWW.A.COM")
        assert not cert.covers("mail.a.com")

    def test_rejects_empty_names(self):
        with pytest.raises(ValueError):
            Certificate(1, (), "ca", 0.0, 1.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            Certificate(1, ("a.com",), "ca", 10.0, 10.0)


class TestCtLog:
    def test_entries_visible_after_merge_delay(self):
        log = CtLog(merge_delay=5.0)
        cert = Certificate(1, ("a.com",), "ca", 100.0, 200.0)
        log.submit(cert, at=100.0)
        assert log.entries_between(0.0, 104.0) == []
        assert len(log.entries_between(0.0, 106.0)) == 1

    def test_names_between_dedups(self):
        log = CtLog()
        log.submit(Certificate(1, ("a.com",), "ca", 100.0, 200.0), at=100.0)
        log.submit(Certificate(2, ("a.com", "b.com"), "ca", 150.0, 250.0),
                   at=150.0)
        names = log.names_between(0.0, 1e6)
        assert set(names) == {"a.com", "b.com"}
        assert names["a.com"] == 101.0  # earliest appearance

    def test_rejects_out_of_order_submission(self):
        log = CtLog()
        log.submit(Certificate(1, ("a.com",), "ca", 100.0, 200.0), at=100.0)
        with pytest.raises(ValueError):
            log.submit(Certificate(2, ("b.com",), "ca", 50.0, 150.0), at=50.0)

    def test_len(self):
        log = CtLog()
        assert len(log) == 0
        log.submit(Certificate(1, ("a.com",), "ca", 0.0, 1.0), at=0.0)
        assert len(log) == 1


class TestCa:
    def test_registered_domain(self):
        assert registered_domain("www.mail.a.com") == "a.com"
        with pytest.raises(ValueError):
            registered_domain("com")

    def test_issue_logs_to_ct(self, env):
        _, _, log, ca, _ = env
        ca.issue(["honey.com"], at=100.0)
        assert len(log) == 1

    def test_rate_limit_per_domain_per_week(self, env):
        *_, ca, _ = env
        for i in range(3):
            ca.issue([f"s{i}.honey.com"], at=100.0 + i)
        with pytest.raises(RateLimitExceeded):
            ca.issue(["s3.honey.com"], at=200.0)

    def test_rate_limit_window_slides(self, env):
        *_, ca, _ = env
        for i in range(3):
            ca.issue([f"s{i}.honey.com"], at=100.0 + i)
        # A week later the window has slid.
        ca.issue(["s3.honey.com"], at=100.0 + WEEK + 10)

    def test_rate_limit_week_boundary(self, env):
        """The window is ``not_before > at - WEEK``: a certificate issued
        exactly a week ago no longer counts, one a second later does."""
        *_, ca, _ = env
        for i in range(3):
            ca.issue([f"s{i}.honey.com"], at=100.0 + i)
        with pytest.raises(RateLimitExceeded):
            ca.issue(["s3.honey.com"], at=100.0 + WEEK - 1)
        # Exactly a week after the first: only s1 and s2 still count.
        ca.issue(["s3.honey.com"], at=100.0 + WEEK)
        with pytest.raises(RateLimitExceeded):
            ca.issue(["s4.honey.com"], at=100.0 + WEEK)
        ca.issue(["s4.honey.com"], at=101.0 + WEEK)

    def test_fifty_certificate_limit(self):
        """The default limit the paper hit: 50 certificates per
        registered domain per week, then refusals until the first one
        leaves the window; other domains are unaffected."""
        ca = CertificateAuthority()
        for i in range(50):
            ca.issue([f"s{i}.honey.com"], at=float(i))
        with pytest.raises(RateLimitExceeded):
            ca.issue(["s50.honey.com"], at=60.0)
        ca.issue(["s0.other.com"], at=60.0)
        ca.issue(["s50.honey.com"], at=WEEK)  # s0 (at 0.0) left the window
        with pytest.raises(RateLimitExceeded):
            ca.issue(["s51.honey.com"], at=WEEK)
        assert len(ca.issued()) == 52

    def test_rate_limit_is_per_domain(self, env):
        registrar, *_ = env
        ca = CertificateAuthority(weekly_limit=1)
        ca.issue(["a.honey.com"], at=0.0)
        ca.issue(["b.other.com"], at=0.0)  # different domain: fine

    def test_mixed_domains_rejected(self, env):
        *_, ca, _ = env
        with pytest.raises(ValueError):
            ca.issue(["a.honey.com", "b.other.com"], at=0.0)

    def test_empty_names_rejected(self, env):
        *_, ca, _ = env
        with pytest.raises(ValueError):
            ca.issue([], at=0.0)

    def test_serials_increment(self, env):
        *_, ca, _ = env
        c1 = ca.issue(["a.honey.com"], at=0.0)
        c2 = ca.issue(["b.honey.com"], at=1.0)
        assert c2.serial == c1.serial + 1


class TestAcme:
    def test_happy_path(self, env):
        registrar, resolver, log, ca, client = env
        cert = client.obtain(["honey.com", "www.honey.com"], at=100.0)
        assert cert.covers("www.honey.com")
        # challenge TXT records cleaned up
        from repro.dns.records import RRType

        assert resolver.resolve("_acme-challenge.honey.com", RRType.TXT,
                                1e9) == []

    def test_ct_visibility_within_seconds(self, env):
        _, _, log, _, client = env
        client.obtain(["honey.com"], at=100.0)
        names = log.names_between(100.0, 120.0)
        assert "honey.com" in names
        assert names["honey.com"] - 100.0 < 10.0

    def test_validation_fails_without_challenge(self, env):
        *_, client = env
        order = client.new_order(["honey.com"], at=100.0)
        with pytest.raises(ChallengeFailed):
            client.validate_and_issue(order, at=110.0)

    def test_validation_fails_with_wrong_token(self, env):
        registrar, *_, client = env
        order = client.new_order(["honey.com"], at=100.0)
        registrar.set_txt("_acme-challenge.honey.com", "wrong", at=100.0)
        with pytest.raises(ChallengeFailed):
            client.validate_and_issue(order, at=110.0)

    def test_order_requires_names(self, env):
        *_, client = env
        with pytest.raises(ValueError):
            client.new_order([], at=0.0)

    def test_order_tracking(self, env):
        *_, client = env
        order = client.new_order(["honey.com"], at=0.0)
        assert not order.fulfilled
        client.install_challenges(order, at=0.0)
        client.validate_and_issue(order, at=10.0)
        assert order.fulfilled
