"""Public IPv6 hitlist service (Gasser et al.-style).

The hitlist periodically compiles candidate addresses from public data
sources (TLD zone files, CT logs, operator-submitted seeds), probes them for
responsiveness per protocol, detects aliased prefixes, and publishes
categorized lists that hitlist-consuming scanners download.  The paper also
collaborated with the hitlist maintainers to *manually* insert addresses —
modeled by :meth:`HitlistService.insert_manual`.
"""
