"""Lexsort oracles of the hashed composite-key kernel.

``repro.net.addr.group_keys`` and ``find_keys`` group and look up
composite keys through one hashed word.  These are the exact multi-column
sorts they replaced, kept here as the oracles the randomized tests hold
the kernel to.  Group ids ascend in key order (first column primary).
"""

import numpy as np


def group_ids_cols_reference(cols):
    """Group rows by the tuple of key columns: ``(ids, n_groups)``, ids
    in ascending lexicographic key order."""
    cols = [np.asarray(c) for c in cols]
    n = len(cols[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort(tuple(reversed(cols)))
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for col in cols:
        sc = col[order]
        boundary[1:] |= sc[1:] != sc[:-1]
    ids_sorted = np.cumsum(boundary) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = ids_sorted
    return ids, int(ids_sorted[-1]) + 1


def group_ids_u64_reference(hi, lo):
    """Group rows by (hi, lo) value, ids in ascending (hi, lo) order."""
    return group_ids_cols_reference((hi, lo))


def member_mask_cols_reference(query_cols, set_cols):
    """Row-wise membership of a composite key in a composite-key set, by
    grouping the concatenation of set and query rows."""
    set_cols = [np.asarray(c) for c in set_cols]
    query_cols = [np.asarray(c) for c in query_cols]
    n_set = len(set_cols[0])
    if n_set == 0:
        return np.zeros(len(query_cols[0]), dtype=bool)
    all_cols = [np.concatenate([s.astype(q.dtype, copy=False), q])
                for s, q in zip(set_cols, query_cols)]
    ids, n_groups = group_ids_cols_reference(all_cols)
    in_set = np.zeros(n_groups, dtype=bool)
    in_set[ids[:n_set]] = True
    return in_set[ids[n_set:]]


def member_mask_u64_reference(hi, lo, set_hi, set_lo):
    """Row-wise membership of (hi, lo) in the set (set_hi, set_lo)."""
    return member_mask_cols_reference(
        (hi, lo), (np.asarray(set_hi, dtype=np.uint64),
                   np.asarray(set_lo, dtype=np.uint64)))


def lookup_pos_u64_reference(hi, lo, set_hi, set_lo, set_pos):
    """``set_pos`` of each (hi, lo) row's match in a set of distinct
    keys, -1 on a miss."""
    n_set = len(set_hi)
    out = np.full(len(hi), -1, dtype=np.int64)
    if n_set == 0 or len(hi) == 0:
        return out
    all_hi = np.concatenate([np.asarray(set_hi, dtype=np.uint64), hi])
    all_lo = np.concatenate([np.asarray(set_lo, dtype=np.uint64), lo])
    ids, n_groups = group_ids_u64_reference(all_hi, all_lo)
    pos_of_group = np.full(n_groups, -1, dtype=np.int64)
    pos_of_group[ids[:n_set]] = np.asarray(set_pos, dtype=np.int64)
    return pos_of_group[ids[n_set:]]
