"""DNS substrate: records, zones, TLD registries, resolution, reverse DNS.

The proactive telescope's second attraction channel: registering domain
names whose AAAA records point into honeyprefixes.  TLD registries publish
zone files on a daily cycle (ICANN CZDS-style); scanner agents diff those
feeds, resolve the new names, and probe the resulting addresses.  The
reverse (ip6.arpa) tree is modeled too, since prior work found scanners
walking it.
"""
