"""Test-side helpers shared by more than one test module."""

import ast
import contextlib
import functools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from eisen import irreducibility, replicate
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


def resultant_mod_p(a, b, p):
    """Res(a, b) mod p of coefficient lists (constant first), by a plain Euclid over GF(p) on lists.

    Degrees are the degrees mod p, and Res(a, b) = lc(a)^deg b lc(b)^deg a prod (alpha - beta)
    over the roots of each, so for monic f, Res(f, f') = prod f'(alpha) whatever deg f' is.
    The oracle of the packed kernel's discriminant character; it uses neither the kernel nor
    ``eisen.recheck``.
    """

    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b, res = trim(a), trim(b), 1
    while True:
        if not a or not b:
            return 0
        m, k = len(a) - 1, len(b) - 1
        if k == 0:
            return res * pow(b[0], m, p) % p
        if m < k:  # Res(a, b) = (-1)^(m k) Res(b, a)
            a, b, res = b, a, res * (-1) ** (m * k) % p
            continue
        r, inv = a[:], pow(b[-1], -1, p)
        while len(r) > k:  # r = a mod b
            t = r[-1] * inv % p
            for i in range(k + 1):
                r[len(r) - 1 - k + i] = (r[len(r) - 1 - k + i] - t * b[i]) % p
            r = trim(r)
        if not r:
            return 0
        # Res(a, b) = (-1)^(m k) Res(b, a) = (-1)^(m k) lc(b)^(m - deg r) Res(b, r)
        a, b, res = b, r, res * (-1) ** (m * k) * pow(b[-1], m - len(r) + 1, p) % p


def class_number(d):
    """h(d) for a discriminant d < 0: the number of primitive reduced forms a x^2 + b x y + c y^2 with b^2 - 4ac = d.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c, so a <= sqrt(-d/3).
    """
    h = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            h += not r and c >= a and not (b < 0 and c == a) and math.gcd(a, b, c) == 1
    return h


def rational_supersingular_count(p):
    """The supersingular j-invariants in F_p, for a prime p >= 5, by class numbers.

    h(-4p)/2 for p = 1 mod 4, h(-p) for p = 7 mod 8 and 2 h(-p) for p = 3 mod 8
    (Delfs and Galbraith, Des. Codes Cryptogr. 78, 2016).  j = 0 is among them when
    p = 2 mod 3, and j = 1728 when p = 3 mod 4.
    """
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    return class_number(-p) * (1 if p % 8 == 7 else 2)


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
    that is sum u_a = 1 and sum u_a (240a - 504b) = -2k/B_k.  Each term
    w_a r_4^a r_6^b is formed here as a Fraction, with r_4 = 1/45 and
    r_6 = 2/945; its sum is compared with r_k, and its sum weighted by
    240a - 504b with -2k r_k / B_k.
    """
    terms = {a: w * Fraction(1, 45) ** a * Fraction(2, 945) ** ((k - 4 * a) // 6) for a, w in vec.items()}
    r_k = zeta_ratio(k)
    if sum(terms.values()) != r_k:
        raise ConsistencyError(f"weight {k}: the constant q-coefficient of E_k is not 1")
    if sum((240 * a - 504 * ((k - 4 * a) // 6)) * t for a, t in terms.items()) != -2 * k * r_k / bernoulli(k):
        raise ConsistencyError(f"weight {k}: the q^1 coefficient of E_k is not -2k/B_k")


@contextlib.contextmanager
def recording_ddf_calls():
    """Record every ``distinct_degree_pattern`` call made inside the block, as (f, p, mask, returned) in call order.

    Both bindings the package calls, ``irreducibility``'s and ``replicate``'s, are
    patched.  mask is the walk's bitmask of unexcluded proper degrees at the call, None
    outside a witness walk; a walk call replays as
    ``with irreducibility._walk_remaining(mask): distinct_degree_pattern(f, p)``.
    """
    real, calls = irreducibility.distinct_degree_pattern, []

    def recording(f, p):
        mask = irreducibility._WALK_REMAINING.get()
        returned = real(f, p)
        calls.append((tuple(f), p, mask, returned))
        return returned

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(irreducibility, "distinct_degree_pattern", recording)
        patch.setattr(replicate, "distinct_degree_pattern", recording)
        yield calls
