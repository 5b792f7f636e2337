"""BGP routing substrate: speakers, RIBs, public route collectors, RPKI.

The proactive telescope's first attraction feature is announcing /48
"honeyprefixes" via BGP.  Scanners in the ecosystem watch public route
collectors (RouteViews/RIS-style) for new prefixes.  The key semantics the
paper depends on are modeled here:

* /48 is the longest prefix that reliably propagates globally; announcements
  of /49-/64 "hyper-specific" prefixes reach only a handful of collectors,
* RPKI-aware upstreams reject announcements without a covering ROA,
* withdrawals propagate within hours and scanners notice quickly.
"""
