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
so each pair is taken once with a doubled coefficient.  It is evaluated, not
convolved: at (G4, G6) = (1, z), G_k is z^b0 R(z^2) with one unknown
coefficient of R per (a, b), so the identity is summed at z = 1 .. n + 1 for
the n unknowns, one product of two point values per pair and node, and w(k)
is recovered by exact interpolation, the last node checking the result.  The
unfolded, symmetric ordering is kept as an independent cross-check that
``extend`` runs at the weights 12 * 2^m and 12 * 2^m + 2 (both residues of
k mod 4); it convolves coefficient vectors and shares no arithmetic with the
evaluated sum.

Both sums work on integers over a per weight common denominator;
per-coefficient Fraction reduction happens once per weight.  This matters:
naive Fraction arithmetic normalizes on every multiply and is ~25x slower at
weight 500.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping, Union

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
    route and the q-series oracle share it for the life of the table.  For
    the same reason ``integer_view(k)`` is built once and kept in ``_views``
    for the precancelled Popa route, its only reader.  Neither memo is filled
    by ``extend``, ``load_csv`` or the phi routes.
    """

    def __init__(self) -> None:
        self._w: dict[int, WVector] = {4: {1: Fraction(1)}, 6: {0: Fraction(1)}}
        self._graded: dict[int, GradedForm] = {}
        self._views: dict[int, tuple[dict[int, int], int]] = {}

    def __contains__(self, k: int) -> bool:
        return k in self._w

    def weights(self) -> list[int]:
        return sorted(self._w)

    def max_weight(self) -> int:
        return max(self._w)

    def w_vector(self, k: int) -> WVector:
        if k not in self._w:
            if k < 4 or k % 2:
                raise DomainError(f"k must be even and >= 4, got {k}")
            raise MissingWeightError(f"weight {k} not in table (extend first)")
        return dict(self._w[k])

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

        The folded sum reads each weight's values at the nodes z = 1, 2, ...,
        as many as any weight up to k_max needs (len(exponents(k)) + 1 <=
        k // 12 + 2).  They are held for this call only: every stored weight
        is evaluated once when the first weight is missing, each new weight
        right after it is stored, and all are dropped on return.
        """
        nodes = k_max // 12 + 2
        points: dict[int, tuple[list[int], int]] = {}
        for k in range(8, k_max + 1, 2):
            if k in self._w:
                continue
            if not points:
                points = {m: _evaluate(m, vec, nodes) for m, vec in self._w.items()}
            vec = rademacher_expand(k, points)
            if _cross_checked(k) and rademacher_expand_unfolded(k, self) != vec:
                raise ConsistencyError(f"folded and unfolded convolutions disagree at weight {k}")
            self._store(k, vec)
            points[k] = _evaluate(k, self._w[k], nodes)
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
            form = GradedForm(k, {(0, a, (k - 4 * a) // 6): n for a, n in nums.items()}, scale)
            self._graded[k] = form
        return form

    def integer_view(self, k: int) -> tuple[dict[int, int], int]:
        """Integers nums, den with w_{a,k} = nums[a] / den, den the lcm of w(k)'s denominators.

        Built on first read and kept in ``_views``; the result is shared, and
        its reader must not change it.
        """
        view = self._views.get(k)
        if view is None:
            view = self._views[k] = _integer_view(self.w_vector(k))
        return view

    def e_basis_numerators(self, k: int) -> tuple[dict[int, int], int]:
        """Integers nums, scale with E_k = sum nums[a] / (scale r_k) E4^a E6^b, r_k = 2 zeta(k)/pi^k.

        Reads w(k) only: no point value of the convolution is evaluated.
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
        ``ConsistencyError``; so does a file that ``csv`` cannot read (such as
        one with a field past ``csv.field_size_limit()``), and a loaded weight
        missing a row for any (a, b) with 4a + 6b = k, whose values do not
        give E_k's first two q-coefficients (``_check_q_coefficients``), or
        with a value w <= 0.
        Every w_{a,k} is positive: w(4) and w(6) are, and so is every
        multiplier of the convolution recurrence.  Weights need not be
        contiguous: ``extend`` fills any gap.
        """
        table = cls()
        loaded: dict[int, WVector] = {}
        try:
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
        except csv.Error as exc:
            raise ConsistencyError(f"table {path} is not readable CSV: {exc}") from exc
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


def _require_weights(have: Container[int], needed: Iterable[int]) -> None:
    missing = sorted({m for m in needed if m not in have})
    if missing:
        raise MissingWeightError(f"table is missing prerequisite weights {missing}")


def _evaluate(k: int, vec: WVector, count: int) -> tuple[list[int], int]:
    """Integers vals, den with sum_a vec[a] z^b = vals[z - 1] / den at z = 1 .. count.

    That is G_k at (G4, G6) = (1, z): z^b0 R(z^2), R evaluated by Horner from
    the integer view of w(k).  b runs over b0, b0 + 2, ... and b0 is 0 or 1.
    """
    nums, den = _integer_view(vec)
    pairs = exponents(k)
    b0 = pairs[-1][1]
    vals = []
    for z in range(1, count + 1):
        y = z * z
        h = 0
        for a, _ in pairs:  # b descending
            h = h * y + nums.get(a, 0)
        vals.append(h * z**b0)
    return vals, den


def _pointwise_convolution(
    terms: Iterable[tuple[int, int, int]],
    points: Mapping[int, tuple[list[int], int]],
    count: int,
) -> tuple[list[int], int]:
    """Accumulate coeff * G_m1(1, z) G_m2(1, z) at z = 1 .. count over integers.

    ``terms`` yields (coeff, m1, m2).  As in ``_scaled_convolution`` the
    accumulator is kept over a running least common denominator, but each
    pair costs one product of two point values per node, not one per pair of
    coefficients.
    """
    acc = [0] * count
    acc_den = 1
    for coeff, m1, m2 in terms:
        vals1, den1 = points[m1]
        vals2, den2 = points[m2]
        pair_den = den1 * den2
        lcm = acc_den // math.gcd(acc_den, pair_den) * pair_den
        if lcm != acc_den:
            grow = lcm // acc_den
            acc = [v * grow for v in acc]
            acc_den = lcm
        mult = (lcm // pair_den) * coeff
        acc = [v + mult * (x * y) for v, x, y in zip(acc, vals1, vals2)]
    return acc, acc_den


def _interpolate(k: int, vals: list[int]) -> dict[int, int]:
    """The integers N_a with sum_a N_a z^b = vals[z - 1] at z = 1 .. n + 1, n = len(exponents(k)).

    Exact Lagrange interpolation of R(y) = vals[z - 1] / z^b0 at y = z^2 for
    z = 1 .. n, in Newton's divided-difference form: R has integer
    coefficients and integer nodes, so every divided difference is an integer
    and every division exact.  Node n + 1 checks the interpolant.  A division
    that leaves a remainder, or a mismatch at the check node, raises
    ``ConsistencyError``.
    """
    pairs = exponents(k)
    n = len(pairs)
    b0 = pairs[-1][1]
    ys = [z * z for z in range(1, n + 2)]
    r_vals = []
    for z, v in zip(range(1, n + 2), vals):
        q, r = divmod(v, z**b0)
        if r:
            raise ConsistencyError(f"weight {k}: the value at z = {z} is not a multiple of z^{b0}")
        r_vals.append(q)
    c = r_vals[:n]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(c[i] - c[i - 1], ys[i] - ys[i - j])
            if r:
                raise ConsistencyError(f"weight {k}: a divided difference is not an integer")
            c[i] = q
    # Newton form to coefficients of y^0 .. y^(n-1)
    coef = [0] * n
    coef[0] = c[n - 1]
    for i in range(n - 2, -1, -1):
        y_i = ys[i]
        for d in range(n - 1 - i, 0, -1):
            coef[d] = coef[d - 1] - y_i * coef[d]
        coef[0] = c[i] - y_i * coef[0]
    check = 0
    for v in reversed(coef):
        check = check * ys[n] + v
    if check != r_vals[n]:
        raise ConsistencyError(f"weight {k}: the interpolant misses the check node z = {n + 1}")
    # y^j is z^(b0 + 2j), the pair listed j-th from the end
    return {a: coef[n - 1 - j] for j, (a, _) in enumerate(pairs)}


def rademacher_expand(k: int, points: Mapping[int, tuple[list[int], int]]) -> WVector:
    """w(k) from the convolution identity, folded (the production path)

        (k/2-3)(k-1)(k+1) G_k = 3 sum_{p=2}^{k/2-2} (2p-1)(k-2p-1) G_{2p} G_{k-2p}
                              = 6 sum_{p=2}^{ceil(k/4)-1} (2p-1)(k-2p-1) G_{2p} G_{k-2p}
                                + 3 (k/2-1)^2 G_{k/2}^2        [term present only when 4 | k].

    The terms p and k/2 - p of the symmetric sum are equal, so each pair is
    taken once.  The identity is evaluated at (G4, G6) = (1, z) for
    z = 1 .. n + 1, n = len(exponents(k)), and w(k) recovered once by
    ``_interpolate``.  ``points`` maps each even weight 4 .. k-4 to its
    values at no fewer than n + 1 nodes, as ``_evaluate`` gives them.  k = 6
    is outside the domain (the left factor k/2-3 vanishes there).
    """
    _check_domain(k)
    terms = [(6 * (2 * p - 1) * (k - 2 * p - 1), 2 * p, k - 2 * p) for p in range(2, (k + 2) // 4)]
    if k % 4 == 0:
        terms.append((3 * (k // 2 - 1) ** 2, k // 2, k // 2))
    count = len(exponents(k)) + 1
    _require_weights(points, range(4, k - 3, 2))
    if any(len(points[m][0]) < count for m in range(4, k - 3, 2)):
        raise DomainError(f"weight {k} needs point values at {count} nodes")
    vals, den = _pointwise_convolution(terms, points, count)
    return _reduce_scaled(_interpolate(k, vals), den * (k // 2 - 3) * (k - 1) * (k + 1))


def rademacher_expand_unfolded(k: int, table: EisensteinTable) -> WVector:
    """The same w(k) from the symmetric, unfolded sum

        (k/2-3)(k-1)(k+1) G_k = 3 sum_{p=2}^{k/2-2} (2p-1)(k-2p-1) G_{2p} G_{k-2p},

    every term evaluated on its own, in the coefficient domain on integer
    views of w(m) built for this call.  It is the cross-check of the folded
    production sum, with which it shares no convolution arithmetic: ``extend``
    compares the two at every weight 12 * 2^m and 12 * 2^m + 2.
    """
    _check_domain(k)
    _require_weights(table, range(4, k - 3, 2))
    views = {m: _integer_view(table._w[m]) for m in range(4, k - 3, 2)}
    acc, den = _scaled_convolution(
        ((3 * (2 * p - 1) * (k - 2 * p - 1), 2 * p, k - 2 * p) for p in range(2, k // 2 - 1)),
        views.__getitem__,
    )
    return _reduce_scaled(acc, den * (k // 2 - 3) * (k - 1) * (k + 1))


def rademacher_expand_folded(k: int, table: EisensteinTable) -> WVector:
    """``rademacher_expand`` on point values of ``table`` evaluated for this call.

    Only the benchmark needs it: ``bench/spans.py`` traces this name.
    """
    count = len(exponents(k)) + 1
    return rademacher_expand(k, {m: _evaluate(m, vec, count) for m, vec in table._w.items() if m < k - 2})


# ---------------------------------------------------------------------------
# Popa's recurrence


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


def _popa_common_terms(k: int) -> list[tuple[int, int, int]]:
    # the product sum plus, for k = 0 mod 4, the square term; all in G-language.
    # d_{j+1} d_{k-j-1} = (-1)^((j+1)/2 + (k-j-1)/2) j! (k-j-2)! / 2^(k+2), and
    # the sign's exponent is k/2: each coefficient is the integer returned over 2^(k+2)
    h = k // 2
    sign = -1 if h % 2 else 1
    out = []
    for j in range(3, h - 1, 2):
        num = (math.comb(h, j) + math.comb(h - 2, j)) * math.factorial(j) * math.factorial(k - j - 2)
        out.append((sign * num, j + 1, k - j - 1))
    if k % 4 == 0:
        out.append((h * math.factorial(h - 1) ** 2, h, h))
    return out


def _popa_graded(k: int, table: EisensteinTable) -> WVector:
    _require_weights(table, range(4, k - 1, 2))
    form = table.graded_form
    # every scalar over 2^(k+2) less the common factor g of the product sum and square
    # term; then the G_2 term (stored as r_2 E_2 = E_2 / 3) and the derivative term
    common = _popa_common_terms(k)
    g = math.gcd(*[num for num, _, _ in common])
    terms = [(num // g, form(m1), form(m2)) for num, m1, m2 in common]
    g_km2 = form(k - 2)
    dk2 = popa_d(k - 2) * 2 ** (k + 2)
    terms.append(((k - 2) * D2 * dk2 / (3 * g), E2, g_km2))
    terms.append((dk2 / (2 * g), serre_derivative(g_km2), None))
    nums, den = GradedForm.combination(k, terms).numerators()
    # the sum is 2^(k+2) c_k d_k G_k / g: w_{a,k} = G_k's coefficient / (r4^a r6^b), one Fraction from integers
    cd = popa_c(k) * popa_d(k)
    up, den = cd.denominator * g, den * cd.numerator << (k + 2)
    (n4, d4), (n6, d6) = (r.as_integer_ratio() for r in (zeta_ratio(4), zeta_ratio(6)))
    vec: WVector = {}
    for (e2, a, b), n in nums.items():
        if e2:
            raise ConsistencyError(
                f"weight-2 generator failed to cancel at weight {k}: residue {Fraction(n * up, den)} on E2^{e2} E4^{a} E6^{b}"
            )
        vec[a] = Fraction(n * up * d4**a * d6**b, den * n4**a * n6**b)
    return vec


def _popa_precancelled(k: int, table: EisensteinTable) -> WVector:
    _require_weights(table, range(4, k - 1, 2))
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

    # integer views of w(m) from the table's memo, built once per weight for
    # the life of the table; no point value of the convolution this route checks.
    # Every term is over 2^(k+2), as in the graded route: acc is 2^(k+2) c_k d_k G_k
    for num, m1, m2 in _popa_common_terms(k):
        (nums1, den1), (nums2, den2) = table.integer_view(m1), table.integer_view(m2)
        conv: dict[int, int] = {}
        for a1, v1 in nums1.items():
            for a2, v2 in nums2.items():
                conv[a1 + a2] = conv.get(a1 + a2, 0) + v1 * v2
        add(num, den1 * den2, conv)

    # combined closed form of the G_2 and derivative terms: after cancellation
    # they contribute -(d_{k-2}/2) * sum w_{a,k-2} ( (7a/2) G4^(a-1) G6^(b+1)
    #                                              + (15b/7) G4^(a+2) G6^(b-1) ),
    # with 7a/2 = 49a/14 and 15b/7 = 30b/14 over a common 14; d_{k-2}/2 is taken over 2^(k+2)
    half_dk2 = popa_d(k - 2) * 2 ** (k + 1)
    nums, den = table.integer_view(k - 2)
    part: dict[int, int] = {}
    for a, n in nums.items():
        b = (k - 2 - 4 * a) // 6
        if a:
            part[a - 1] = part.get(a - 1, 0) + 49 * a * n
        if b:
            part[a + 2] = part.get(a + 2, 0) + 30 * b * n
    add(-half_dk2.numerator, half_dk2.denominator * den * 14, part)

    cd = popa_c(k) * popa_d(k)
    return {a: Fraction(v * cd.denominator, acc_den * cd.numerator << (k + 2)) for a, v in acc.items() if v}


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
