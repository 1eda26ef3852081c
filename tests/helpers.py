"""Test-side helpers shared by more than one test module."""

from fractions import Fraction

#: frozen golden phi_k (weight -> coefficients, constant first)
GOLDEN_PHI = {
    12: (Fraction(-432000, 691), Fraction(1)),
    16: (Fraction(-3456000, 3617), Fraction(1)),
    24: (
        Fraction(30710845440000, 236364091),
        Fraction(-340364160000, 236364091),
        Fraction(1),
    ),
}


def covers(pattern, mask):
    """True if every degree set in the bitmask ``mask`` is a sum of a sub-multiset of ``pattern``."""
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return all(d in sums for d in range(mask.bit_length()) if mask >> d & 1)
