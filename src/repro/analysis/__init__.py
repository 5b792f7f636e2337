"""Analysis pipeline: flow aggregation, scan detection, metadata joins,
telescope comparison, causal effect estimation, and the paper's
figure-specific analyses (scope, tactics, Hilbert maps).
"""
