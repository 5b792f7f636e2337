"""Test oracle for the observer's seen-source state.

Before the seen sources were :class:`~repro.net.addr.KeySet` columns, the
observer held them as Python sets, and checkpoints pickled them that way:
the high half as an int at levels <= 64, ``(hi, lo)`` tuples at /128.
:class:`SeenSourcesReference` is that set code, and :func:`as_sets` turns
a packed state back into the set layout.
"""


class SeenSourcesReference:
    """New-source counting over Python sets, per level."""

    def __init__(self):
        self.seen: dict[int, set] = {}

    def add(self, level: int, hi, lo) -> int:
        seen = self.seen.setdefault(level, set())
        before = len(seen)
        if level <= 64:
            seen.update(hi.tolist())
        else:
            seen.update(zip(hi.tolist(), lo.tolist()))
        return len(seen) - before


def as_sets(keys, level: int) -> set:
    """A :class:`~repro.net.addr.KeySet` of seen sources in the set layout
    of :class:`SeenSourcesReference`."""
    if level <= 64:
        return set(keys.cols[0].tolist())
    return set(zip(keys.cols[0].tolist(), keys.cols[1].tolist()))
