"""Metadata datasets: AS classification, geolocation, prefix-to-AS mapping.

Stand-ins for ASdb, IPinfo's geolocation database, and CAIDA's RouteViews
prefix2as snapshots.  The synthetic scanner population registers its source
prefixes here so the analysis pipeline exercises the same joins the paper's
pipeline performed (including dated snapshots and ASdb's occasional
misclassifications).
"""
