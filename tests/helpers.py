"""Test-side helpers shared by more than one test module."""


def covers(pattern, mask):
    """True if every degree set in the bitmask ``mask`` is a sum of a sub-multiset of ``pattern``."""
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return all(d in sums for d in range(mask.bit_length()) if mask >> d & 1)
