"""TLS certificate substrate: ACME DNS-01 issuance, the CA, and CT logs.

The telescope's third attraction channel: TLS certificates issued for
domain/subdomain names land in public Certificate Transparency logs within
seconds, and CT-watching scanners (Kondracki et al.'s "CT bots") resolve
the SAN names and probe the addresses.  The paper observed the first scanner
7 seconds after issuance.  Let's Encrypt's weekly rate limit — the reason
only 50 subdomains got certificates — is modeled on the CA.
"""
