"""Hilbert-curve address-space maps (Appendix E, Figure 14).

Maps the 65,536 /48 subnets of a /32 onto a 256x256 Hilbert curve so that
numerically adjacent subnets stay visually adjacent — the standard way to
render telescope address space.  Returns plain numpy grids; rendering is
left to the caller (the benchmark prints an ASCII digest).

:func:`hilbert_map` groups the in-prefix destination columns by cell once
and walks the curve once per distinct cell, not once per packet.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.records import PacketRecords
from repro.net.addr import IPv6Prefix, prefix_groups_u64


def hilbert_d2xy(order: int, d: int) -> tuple[int, int]:
    """Convert distance ``d`` along a Hilbert curve of 2^order x 2^order
    cells into (x, y) coordinates."""
    n = 1 << order
    if not 0 <= d < n * n:
        raise ValueError(f"distance {d} outside curve of order {order}")
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        # Rotate quadrant.
        if ry == 0:
            if rx == 1:
                x, y = s - 1 - x, s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_xy2d(order: int, x: int, y: int) -> int:
    """Inverse of :func:`hilbert_d2xy`."""
    n = 1 << order
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"({x}, {y}) outside grid of order {order}")
    d = 0
    s = n // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x, y = s - 1 - x, s - 1 - y
            x, y = y, x
        s //= 2
    return d


def hilbert_map(
    records: PacketRecords,
    covering_prefix: IPv6Prefix,
    cell_length: int = 48,
) -> np.ndarray:
    """Packet counts per /``cell_length`` subnet laid out on a Hilbert grid.

    For a /32 covering prefix with /48 cells the result is a 256x256 grid
    (order 8): Figure 14's canvas.
    """
    bits = cell_length - covering_prefix.length
    if bits <= 0 or bits % 2 != 0:
        raise ValueError(
            "cell_length - covering length must be a positive even number"
        )
    order = bits // 2
    size = 1 << order
    grid = np.zeros((size, size), dtype=np.float64)
    shift = 128 - cell_length
    base_index = covering_prefix.network >> shift
    inside = records.mask_dst_in(covering_prefix)
    ids, cell_hi, cell_lo = prefix_groups_u64(
        records.dst_hi[inside], records.dst_lo[inside], cell_length)
    counts = np.bincount(ids, minlength=len(cell_hi))
    for hi, lo, count in zip(cell_hi.tolist(), cell_lo.tolist(),
                             counts.tolist()):
        x, y = hilbert_d2xy(order, (((hi << 64) | lo) >> shift) - base_index)
        grid[y, x] += count
    return grid


def prefix_cells(
    prefixes: list[IPv6Prefix],
    covering_prefix: IPv6Prefix,
    cell_length: int = 48,
) -> list[tuple[int, int]]:
    """Grid coordinates of given prefixes (honeyprefix markers on Fig 14)."""
    bits = cell_length - covering_prefix.length
    order = bits // 2
    shift = 128 - cell_length
    base_index = covering_prefix.network >> shift
    cells = []
    for prefix in prefixes:
        if not covering_prefix.contains_prefix(prefix):
            raise ValueError(f"{prefix} outside {covering_prefix}")
        d = (prefix.network >> shift) - base_index
        cells.append(hilbert_d2xy(order, int(d)))
    return cells
