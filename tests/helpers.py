"""Test-side helpers shared by more than one test module."""

import ast
import functools
import math
from fractions import Fraction
from pathlib import Path

from eisen import eisenstein
from eisen.errors import ConsistencyError
from eisen.exact import bernoulli, zeta_ratio
from eisen.qmring import GradedForm

#: the weight-4 and weight-6 generators of the ring, which the package itself never names
E4 = GradedForm(4, {(0, 1, 0): 1})
E6 = GradedForm(6, {(0, 0, 1): 1})

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


@functools.cache
def _bench_spans() -> ast.Module:
    """``bench/spans.py`` parsed, never imported: the one reader of what the benchmark reads of the package."""
    return ast.parse((Path(__file__).resolve().parents[1] / "bench" / "spans.py").read_text())


def bench_span_targets() -> tuple:
    """The (module, attribute) pairs the benchmark's tracer wraps."""
    for node in _bench_spans().body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TARGETS")


def bench_attribute_reads() -> set:
    """Every attribute name the benchmark's span code reads, such as ``max_weight`` on the tables it reduces."""
    return {node.attr for node in ast.walk(_bench_spans()) if isinstance(node, ast.Attribute)}


def covers(pattern, mask):
    """True if every degree set in the bitmask ``mask`` is a sum of a sub-multiset of ``pattern``."""
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return all(d in sums for d in range(mask.bit_length()) if mask >> d & 1)


def q_derivative(a):
    """q d/dq of a q-series: multiply the n-th coefficient by n.

    The oracle ``serre_derivative`` must match on the q-expansion side.
    """
    return [i * c for i, c in enumerate(a)]


def integer_view_of(vec):
    """Integers nums, den with vec[a] = nums[a] / den, den the lcm of vec's denominators.

    The reduced integer view an ``EisensteinTable`` stores, formed from Fractions.
    """
    den = math.lcm(*[c.denominator for c in vec.values()])
    return {a: c.numerator * (den // c.denominator) for a, c in vec.items()}, den


def check_q_coefficients_fraction(k, vec):
    """Raise ``ConsistencyError`` unless w(k) gives E_k = 1 - (2k/B_k) q + O(q^2).

    The value check ``load_csv`` made while it held every weight as Fractions,
    kept as the reference its integer check must reproduce: with
    u_a = w_a r_4^a r_6^b / r_k and E_4^a E_6^b = 1 + (240a - 504b) q + ...,
    that is sum u_a = 1 and sum u_a (240a - 504b) = -2k/B_k, both summed in
    integers over the scale of ``_e_basis_numerators``, compared with the
    Fractions r_k and -2k r_k / B_k.
    """
    nums, scale = eisenstein._e_basis_numerators(k, integer_view_of(vec))
    sum0 = sum(nums.values())
    sum1 = sum((240 * a - 504 * ((k - 4 * a) // 6)) * n for a, n in nums.items())
    r_k = zeta_ratio(k)
    q1 = -2 * k * r_k / bernoulli(k)
    if sum0 * r_k.denominator != r_k.numerator * scale:
        raise ConsistencyError(f"weight {k}: the constant q-coefficient of E_k is not 1")
    if sum1 * q1.denominator != q1.numerator * scale:
        raise ConsistencyError(f"weight {k}: the q^1 coefficient of E_k is not -2k/B_k")
