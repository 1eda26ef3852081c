"""Expansion of the weight-k Eisenstein series over the weight-4/weight-6 generators.

Normalization: G_k = 2 zeta(k) E_k, and the object computed here is the
coefficient vector w(k) = (w_{a,k}) of

    G_k = sum over 4a+6b=k of  w_{a,k} G_4^a G_6^b .

Two independent recurrences produce w(k): a convolution recurrence with no
derivative term (Rademacher's identity for power sums of divisor functions,
the production path) and Popa's recurrence, which involves the weight-2
generator and a derivative and exercises the quasimodular ring.  The two
must agree exactly; the q-expansion of either must match the divisor-sum
q-expansion after scaling by 2 zeta(k) / pi^k.  All three paths are exposed.

The production convolution sum is folded: its terms p and k/2 - p are equal,
so each pair is convolved once with a doubled coefficient.  The unfolded,
symmetric ordering is kept as an independent cross-check that ``extend`` runs
at the weights 12 * 2^m and 12 * 2^m + 2 (both residues of k mod 4).

Internally the table builder works on integer numerator vectors over a per
weight common denominator; per-coefficient Fraction reduction happens once
per weight.  This matters: naive Fraction arithmetic normalizes on every
multiply and is ~25x slower at weight 500.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Union

from .errors import ConsistencyError, DomainError, MissingWeightError
from .exact import INFINITY, Valuation, bernoulli, divisor_power_sum, valuation, zeta_ratio
from .exact import format_rational, parse_integer, parse_rational
from .qmring import E2, GradedForm, serre_derivative

#: coefficient vector of one weight: E4-exponent a -> w_{a,k}; b = (k-4a)/6 implied
WVector = dict[int, Fraction]

#: the weight-2 constant d_2 = -1/8 (the general formula below evaluated at k=2)
D2 = Fraction(-1, 8)


def exponents(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = k, a ascending."""
    return [(a, (k - 4 * a) // 6) for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0]


def popa_d(k: int) -> Fraction:
    """d_k = (-1)^(k/2) (k-1)! / 2^(k+1), for even k >= 2."""
    if k < 2 or k % 2:
        raise DomainError(f"k must be even and >= 2, got {k}")
    sign = -1 if (k // 2) % 2 else 1
    return Fraction(sign * math.factorial(k - 1), 2 ** (k + 1))


def popa_c(k: int) -> Fraction:
    """c_k = k / (2(k/2+1)(k/2-1)) + (-1)^(k/2) (k/2)! (k/2-2)! / (2(k-1)!), even k >= 4."""
    if k < 4 or k % 2:
        raise DomainError(f"k must be even and >= 4, got {k}")
    h = k // 2
    sign = -1 if h % 2 else 1
    return Fraction(k, 2 * (h + 1) * (h - 1)) + Fraction(
        sign * math.factorial(h) * math.factorial(h - 2), 2 * math.factorial(k - 1)
    )


# ---------------------------------------------------------------------------
# table


class EisensteinTable:
    """Memoized map weight -> coefficient vector w(k), built bottom-up.

    Weights 4 and 6 are the generators themselves and are axioms; every higher
    even weight is filled by the convolution recurrence when ``extend`` is
    called, or read from a dump by ``load_csv``.  Popa's recurrence never
    builds the table: it is the cross-check that ``popa_expand`` reproduces
    each weight.  Entries are immutable once present, and so is every
    ``GradedForm``, so ``graded_form(k)`` is built once and the graded Popa
    route and the q-series oracle share it for the life of the table.
    """

    def __init__(self) -> None:
        self._w: dict[int, WVector] = {4: {1: Fraction(1)}, 6: {0: Fraction(1)}}
        self._scaled: dict[int, tuple[dict[int, int], int]] = {}
        self._graded: dict[int, GradedForm] = {}

    def __contains__(self, k: int) -> bool:
        return k in self._w

    def weights(self) -> list[int]:
        return sorted(self._w)

    def max_weight(self) -> int:
        return max(self._w)

    def w_vector(self, k: int) -> WVector:
        if k not in self._w:
            raise MissingWeightError(f"weight {k} not in table (extend first)")
        return dict(self._w[k])

    # -- scaled-integer view used by the recurrences -------------------------

    def _scaled_vector(self, k: int) -> tuple[dict[int, int], int]:
        scaled = self._scaled.get(k)
        if scaled is None:
            if k not in self._w:
                raise MissingWeightError(f"weight {k} not in table (extend first)")
            scaled = self._scaled[k] = _integer_view(self._w[k])
        return scaled

    def _store(self, k: int, vec: WVector) -> None:
        self._w[k] = {a: vec[a] for a in sorted(vec)}

    # -- building -------------------------------------------------------------

    def extend(self, k_max: int) -> "EisensteinTable":
        """Fill all even weights up to k_max by the convolution recurrence; returns self.

        Each missing weight is evaluated once by the folded sum
        (``rademacher_expand``).  At each weight k = 12 * 2^m and
        k = 12 * 2^m + 2 (m >= 1) the unfolded ordering
        (``rademacher_expand_unfolded``) is evaluated too and must agree
        exactly, or ``ConsistencyError`` is raised.
        """
        for k in range(8, k_max + 1, 2):
            if k in self._w:
                continue
            vec = rademacher_expand(k, self)
            if _cross_checked(k) and rademacher_expand_unfolded(k, self) != vec:
                raise ConsistencyError(f"folded and unfolded convolutions disagree at weight {k}")
            self._store(k, vec)
        return self

    # -- conversions ------------------------------------------------------------

    def graded_form(self, k: int) -> GradedForm:
        """G_k over the generators, sum w_{a,k} r4^a r6^b E4^a E6^b, from ``e_basis_numerators``.

        Coefficients absorb the ratios r_m = 2 zeta(m)/pi^m, so the q-expansion
        of the returned form equals r_k times the normalized series of E_k.
        Built on first read and kept in ``_graded``.
        """
        form = self._graded.get(k)
        if form is None:
            nums, scale = self.e_basis_numerators(k)
            form = GradedForm.from_numerators(k, {(0, a, (k - 4 * a) // 6): n for a, n in nums.items()}, scale)
            self._graded[k] = form
        return form

    def e_basis_numerators(self, k: int) -> tuple[dict[int, int], int]:
        """Integers nums, scale with E_k = sum nums[a] / (scale r_k) E4^a E6^b, r_k = 2 zeta(k)/pi^k.

        Reads w(k) without filling the ``_scaled`` cache of the recurrences.
        """
        return _e_basis_numerators(k, self.w_vector(k))

    # -- persistence -------------------------------------------------------------

    def dump_csv(self, path: Union[str, Path]) -> None:
        """Write all entries as CSV rows (k, a, b, num/den), sorted.

        Every row is formatted before the path is opened, so a value that
        ``format_rational`` refuses raises ``DomainError`` with no file
        written and an existing file left as it was.
        """
        rows = [
            [k, a, (k - 4 * a) // 6, format_rational(vec[a])]
            for k, vec in sorted(self._w.items())
            for a in sorted(vec)
        ]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["k", "a", "b", "w"], *rows])

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "EisensteinTable":
        """Re-ingest a dump; validates index structure, the two base weights and the values.

        A row that does not parse as four fields k, a, b, w (``parse_integer``
        for k, a, b and ``parse_rational`` for w: ASCII digits only), whose
        exponents are negative or do not satisfy 4a + 6b = k, whose weight is
        below 4, or that repeats an earlier (k, a), raises
        ``ConsistencyError``; so does a loaded weight missing a row for any
        (a, b) with 4a + 6b = k, whose values do not give E_k's first two
        q-coefficients (``_check_q_coefficients``), or with a value w <= 0.
        Every w_{a,k} is positive: w(4) and w(6) are, and so is every
        multiplier of the convolution recurrence.  Weights need not be
        contiguous: ``extend`` fills any gap.
        """
        table = cls()
        loaded: dict[int, WVector] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["k", "a", "b", "w"]:
                raise ConsistencyError(f"unexpected table header {header!r}")
            for row in reader:
                if len(row) != 4:
                    raise ConsistencyError(f"bad table row {row!r}: expected 4 fields")
                try:
                    k, a, b = (parse_integer(field) for field in row[:3])
                    w = parse_rational(row[3])
                except DomainError as exc:
                    raise ConsistencyError(f"bad table row {row!r}: {exc}") from exc
                if 4 * a + 6 * b != k:
                    raise ConsistencyError(f"bad index row {row!r}: 4a+6b != k")
                if a < 0 or b < 0:
                    raise ConsistencyError(f"bad index row {row!r}: negative exponent")
                if k < 4:
                    raise ConsistencyError(f"bad index row {row!r}: weight {k} is below 4")
                vec = loaded.setdefault(k, {})
                if a in vec:
                    raise ConsistencyError(f"duplicate row {row!r} for (k, a) = ({k}, {a})")
                vec[a] = w
        for k in sorted(loaded):
            missing = [(a, b) for a, b in exponents(k) if a not in loaded[k]]
            if missing:
                raise ConsistencyError(f"weight {k} is missing rows for (a, b) in {missing}")
            if k in (4, 6):
                if loaded[k] != table._w[k]:
                    raise ConsistencyError(f"base weight {k} differs from its axiom")
                continue
            _check_q_coefficients(k, loaded[k])
            nonpositive = [a for a, w in loaded[k].items() if w <= 0]
            if nonpositive:
                raise ConsistencyError(
                    f"weight {k}: w_{{a,k}} <= 0 for a in {nonpositive}, but every w_{{a,k}} is positive"
                )
            table._store(k, loaded[k])
        return table


def _e_basis_numerators(k: int, vec: WVector) -> tuple[dict[int, int], int]:
    """Integers nums, scale with w_a r_4^a r_6^b = nums[a] / scale, so u_a = nums[a] / (scale r_k).

    r_4^a r_6^b = 2^b / (45^a 945^b) goes over 45^A 945^B, the largest powers
    at weight k, and each w_a over the lcm of their denominators.  r_k is left
    to the caller: one division per result, not per term.
    """
    pairs = exponents(k)
    a_top, b_top = pairs[-1][0], pairs[0][1]
    lifted, den = _integer_view(vec)
    nums = {a: lifted[a] * 2**b * 45 ** (a_top - a) * 945 ** (b_top - b) for a, b in pairs}
    return nums, den * 45**a_top * 945**b_top


def _integer_view(vec: WVector) -> tuple[dict[int, int], int]:
    """Integers nums, den with vec[a] = nums[a] / den, den the lcm of vec's denominators."""
    den = math.lcm(*[c.denominator for c in vec.values()])
    return {a: c.numerator * (den // c.denominator) for a, c in vec.items()}, den


def _check_q_coefficients(k: int, vec: WVector) -> None:
    """Raise ``ConsistencyError`` unless w(k) gives E_k = 1 - (2k/B_k) q + O(q^2).

    With u_a = w_a r_4^a r_6^b / r_k and E_4^a E_6^b = 1 + (240a - 504b) q + ...,
    that is sum u_a = 1 and sum u_a (240a - 504b) = -2k/B_k, both summed in
    integers over the scale of ``_e_basis_numerators``.
    """
    nums, scale = _e_basis_numerators(k, vec)
    sum0 = sum(nums.values())
    sum1 = sum((240 * a - 504 * ((k - 4 * a) // 6)) * n for a, n in nums.items())
    r_k = zeta_ratio(k)
    q1 = -2 * k * r_k / bernoulli(k)
    if sum0 * r_k.denominator != r_k.numerator * scale:
        raise ConsistencyError(f"weight {k}: the constant q-coefficient of E_k is not 1")
    if sum1 * q1.denominator != q1.numerator * scale:
        raise ConsistencyError(f"weight {k}: the q^1 coefficient of E_k is not -2k/B_k")


# ---------------------------------------------------------------------------
# the convolution recurrence


def _cross_checked(k: int) -> bool:
    """True at the weights 12 * 2^m and 12 * 2^m + 2, m >= 1, where ``extend``
    also evaluates the unfolded sum."""
    q, r = divmod(k, 12)
    return r in (0, 2) and q >= 2 and q & (q - 1) == 0


def _scaled_convolution(
    terms: Iterable[tuple[int, int, int]],
    get_scaled: Callable[[int], tuple[dict[int, int], int]],
) -> tuple[dict[int, int], int]:
    """Accumulate coeff * w(m1) x w(m2) over integer vectors.

    ``terms`` yields (coeff, m1, m2).  The accumulator is kept over a running
    least common denominator so no Fraction normalization happens inside the
    double loop.  Each pair's numerators are convolved first, without the
    multiplier, which then scales each output exponent once.
    """
    acc: dict[int, int] = {}
    acc_den = 1
    for coeff, m1, m2 in terms:
        nums1, den1 = get_scaled(m1)
        nums2, den2 = get_scaled(m2)
        pair_den = den1 * den2
        g = math.gcd(acc_den, pair_den)
        lcm = acc_den // g * pair_den
        if lcm != acc_den:
            grow = lcm // acc_den
            if grow != 1:
                for key in acc:
                    acc[key] *= grow
            acc_den = lcm
        mult = (lcm // pair_den) * coeff
        conv: dict[int, int] = {}
        for a1, v1 in nums1.items():
            for a2, v2 in nums2.items():
                key = a1 + a2
                conv[key] = conv.get(key, 0) + v1 * v2
        for key, v in conv.items():
            acc[key] = acc.get(key, 0) + mult * v
    return acc, acc_den


def _reduce_scaled(acc: dict[int, int], den: int) -> WVector:
    return {a: Fraction(v, den) for a, v in acc.items() if v}


def _check_domain(k: int) -> None:
    if k == 6:
        raise DomainError("k = 6 makes the left factor k/2 - 3 vanish")
    if k < 8 or k % 2:
        raise DomainError(f"k must be even and >= 8, got {k}")


def rademacher_expand(k: int, table: EisensteinTable) -> WVector:
    """w(k) from the convolution identity, folded (the production path)

        (k/2-3)(k-1)(k+1) G_k = 3 sum_{p=2}^{k/2-2} (2p-1)(k-2p-1) G_{2p} G_{k-2p}
                              = 6 sum_{p=2}^{ceil(k/4)-1} (2p-1)(k-2p-1) G_{2p} G_{k-2p}
                                + 3 (k/2-1)^2 G_{k/2}^2        [term present only when 4 | k].

    The terms p and k/2 - p of the symmetric sum are equal, so each pair is
    convolved once.  Needs all even weights 4 .. k-4 in the table.  k = 6 is
    outside the domain (the left factor k/2-3 vanishes there).
    """
    _check_domain(k)
    terms = [(6 * (2 * p - 1) * (k - 2 * p - 1), 2 * p, k - 2 * p) for p in range(2, (k + 2) // 4)]
    if k % 4 == 0:
        terms.append((3 * (k // 2 - 1) ** 2, k // 2, k // 2))
    acc, den = _scaled_convolution(terms, table._scaled_vector)
    return _reduce_scaled(acc, den * (k // 2 - 3) * (k - 1) * (k + 1))


def rademacher_expand_unfolded(k: int, table: EisensteinTable) -> WVector:
    """The same w(k) from the symmetric, unfolded sum

        (k/2-3)(k-1)(k+1) G_k = 3 sum_{p=2}^{k/2-2} (2p-1)(k-2p-1) G_{2p} G_{k-2p},

    every term evaluated on its own.  It is the cross-check of the folded
    production sum: ``extend`` compares the two at every weight 12 * 2^m and
    12 * 2^m + 2.  About twice the work of ``rademacher_expand``.
    """
    _check_domain(k)
    acc, den = _scaled_convolution(
        ((3 * (2 * p - 1) * (k - 2 * p - 1), 2 * p, k - 2 * p) for p in range(2, k // 2 - 1)),
        table._scaled_vector,
    )
    return _reduce_scaled(acc, den * (k // 2 - 3) * (k - 1) * (k + 1))


def rademacher_expand_folded(k: int, table: EisensteinTable) -> WVector:
    """The folded sum, which ``rademacher_expand`` now evaluates for every even k >= 8.

    Kept because ``bench/spans.py`` traces this name, and callers of the
    earlier API may still use it.  It is a function rather than an alias, so
    a tracer that wraps both names never wraps one object twice.
    """
    return rademacher_expand(k, table)


# ---------------------------------------------------------------------------
# Popa's recurrence


def _require_weights(table: EisensteinTable, needed: Iterable[int]) -> None:
    missing = sorted({m for m in needed if m not in table})
    if missing:
        raise MissingWeightError(f"table is missing prerequisite weights {missing}")


def popa_expand(k: int, table: EisensteinTable, route: str = "graded") -> WVector:
    """w(k) from Popa's recurrence

        c_k d_k G_k = sum_{j odd, 3 <= j <= k/2-2} (C(k/2,j) + C(k/2-2,j)) d_{j+1} d_{k-j-1} G_{j+1} G_{k-j-1}
                      + (k-2) d_2 d_{k-2} G_2 G_{k-2}
                      + (d_{k-2}/2) * (q d/dq) G_{k-2}
                      + (k/2) d_{k/2}^2 G_{k/2}^2        [term present only when k/2 is even]

    The weight-2 generator introduced by the G_2 term cancels exactly against
    the one produced by differentiating G_{k-2}; a nonzero residue raises
    ConsistencyError.  Two routes are implemented: ``graded`` runs in the
    quasimodular ring and performs the cancellation structurally;
    ``precancelled`` substitutes the combined closed form of the two middle
    terms and never materializes the weight-2 generator.  They must agree.
    """
    if k < 8 or k % 2:
        raise DomainError(f"k must be even and >= 8, got {k}")
    if route == "graded":
        return _popa_graded(k, table)
    if route == "precancelled":
        return _popa_precancelled(k, table)
    raise DomainError(f"unknown route {route!r}")


def _popa_common_terms(k: int) -> list[tuple[Fraction, int, int]]:
    # the product sum plus, for k = 0 mod 4, the square term; all in G-language
    out = []
    for j in range(3, k // 2 - 1, 2):
        coeff = (math.comb(k // 2, j) + math.comb(k // 2 - 2, j)) * popa_d(j + 1) * popa_d(k - j - 1)
        out.append((coeff, j + 1, k - j - 1))
    if k % 4 == 0:
        out.append((Fraction(k, 2) * popa_d(k // 2) ** 2, k // 2, k // 2))
    return out


def _popa_graded(k: int, table: EisensteinTable) -> WVector:
    _require_weights(table, range(4, k - 1, 2))
    r4, r6 = zeta_ratio(4), zeta_ratio(6)

    acc = GradedForm.zero(k)
    for coeff, m1, m2 in _popa_common_terms(k):
        acc = acc + coeff * (table.graded_form(m1) * table.graded_form(m2))

    # G_2 term: the stored representation of G_2 is r_2 E_2 = E_2 / 3
    g_km2 = table.graded_form(k - 2)
    dk2 = popa_d(k - 2)
    acc = acc + ((k - 2) * D2 * dk2 * Fraction(1, 3)) * (E2 * g_km2)
    # derivative term
    acc = acc + (dk2 / 2) * serre_derivative(g_km2)

    cd = popa_c(k) * popa_d(k)
    acc = acc * (Fraction(1) / cd)

    vec: WVector = {}
    for (e2, a, b), c in acc.terms().items():
        if e2:
            raise ConsistencyError(
                f"weight-2 generator failed to cancel at weight {k}: residue {c} on E2^{e2} E4^{a} E6^{b}"
            )
        vec[a] = c / (r4**a * r6**b)
    return vec


def _popa_precancelled(k: int, table: EisensteinTable) -> WVector:
    _require_weights(table, range(4, k - 1, 2))
    # integer views of w(m), one per weight for this call and dropped with it:
    # no ``_scaled_vector``, whose cache belongs to the convolution this checks
    views = {m: _integer_view(table._w[m]) for m in range(4, k - 1, 2)}
    acc: dict[int, int] = {}
    acc_den = 1

    def add(num: int, den: int, part: dict[int, int]) -> None:
        # acc += (num / den) * part, over the running lcm of the term denominators
        nonlocal acc_den
        lcm = math.lcm(acc_den, den)
        if lcm != acc_den:
            grow = lcm // acc_den
            for a in acc:
                acc[a] *= grow
            acc_den = lcm
        mult = lcm // den * num
        for a, v in part.items():
            acc[a] = acc.get(a, 0) + mult * v

    for coeff, m1, m2 in _popa_common_terms(k):
        (nums1, den1), (nums2, den2) = views[m1], views[m2]
        conv: dict[int, int] = {}
        for a1, v1 in nums1.items():
            for a2, v2 in nums2.items():
                conv[a1 + a2] = conv.get(a1 + a2, 0) + v1 * v2
        add(coeff.numerator, coeff.denominator * den1 * den2, conv)

    # combined closed form of the G_2 and derivative terms: after cancellation
    # they contribute -(d_{k-2}/2) * sum w_{a,k-2} ( (7a/2) G4^(a-1) G6^(b+1)
    #                                              + (15b/7) G4^(a+2) G6^(b-1) ),
    # with 7a/2 = 49a/14 and 15b/7 = 30b/14 over a common 14
    half_dk2 = popa_d(k - 2) / 2
    nums, den = views[k - 2]
    part: dict[int, int] = {}
    for a, n in nums.items():
        b = (k - 2 - 4 * a) // 6
        if a:
            part[a - 1] = part.get(a - 1, 0) + 49 * a * n
        if b:
            part[a + 2] = part.get(a + 2, 0) + 30 * b * n
    add(-half_dk2.numerator, half_dk2.denominator * den * 14, part)

    cd = popa_c(k) * popa_d(k)
    return {a: Fraction(v * cd.denominator, acc_den * cd.numerator) for a, v in acc.items() if v}


# ---------------------------------------------------------------------------
# independent q-expansion and valuation summaries


def q_expansion_direct(k: int, n_terms: int) -> list[Fraction]:
    """The series 1 - (2k/B_k) sum_{n>=1} sigma_{k-1}(n) q^n, truncated."""
    if k < 4 or k % 2:
        raise DomainError(f"k must be even and >= 4, got {k}")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    scale = Fraction(-2 * k) / bernoulli(k)
    out = [Fraction(1)]
    for n in range(1, n_terms):
        out.append(scale * divisor_power_sum(n, k - 1))
    return out


def min_valuation2(vec: Mapping[int, Fraction]) -> Valuation:
    """Minimum 2-adic valuation over a coefficient vector (nonempty)."""
    if not vec:
        raise DomainError("empty coefficient vector")
    best: Valuation = INFINITY
    for c in vec.values():
        v = valuation(c, 2)
        if v < best:
            best = v
    return best
