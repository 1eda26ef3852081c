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

The production convolution sum is split by weight class mod 4.  With
b_m = (m - 1) G_m it reads (k/2 - 3)(k - 1)(k + 1) G_k = 3 sum b_m1 b_m2 over
m1 + m2 = k, and with A_i = b_4i, B_i = b_(4i+2) and C_i = A_i + B_i that sum
is A2(s) + B2(s - 1) at k = 4s and C2(s) - A2(s) - B2(s) = 2 sum A_i B_j at
k = 4s + 2, X2(s) the self-sum sum_{i+j=s} X_i X_j (Karatsuba's identity on
whole class sums).  Each X2(s) is folded, its terms i and s - i being equal,
so each pair is taken once with a doubled coefficient, and A2(s) and B2(s)
each serve two weights: a pair of weights costs three folded sums, not two
folded sums and a mixed one, a quarter fewer point products (341,589 against
451,904 to k = 500).  The sum is evaluated, not convolved: at
(G4, G6) = (1, z), G_k is z^b0 R(z^2), b0 = 0 or 1, with one unknown
coefficient of R per (a, b), so the identity, read as one in R (B2(s - 1),
over weights both 2 mod 4, carries the factor z^2 = y), is summed at the
n + 1 nodes y = 0, 1, -1, 2, -2, ... for the n unknowns, one product of two
point values per pair and node, and w(k) is recovered by exact
interpolation at n of them, the last one checking the result.  Each R is
split into its even and odd halves, R(y) = E(y^2) + y O(y^2): one Horner
pass per half gives R at both y and -y, and the values at y and -y give
both halves at y^2, so each half is interpolated on its own, with half the
divided differences.  Every built weight then passes the same value check
as a loaded one (``_check_q_coefficients``), which a fault in the sum that
the check node cannot see does not.  At the weights 12 * 2^m and
12 * 2^m + 2 (both residues of k mod 4) ``extend`` also compares each built
weight with Popa's recurrence (its precancelled route), a different identity
that convolves coefficient vectors.  It shares with the evaluated sum only
the exponent list (``exponents``), the check for missing weights
(``_require_weights``) and the final reduction by the gcd (``_reduced``).

The sum and both Popa routes work on integers over a per weight common
denominator and return w(k) in the table's form, its reduced integer view,
with no Fraction formed; so do the checks that read it.  This matters: naive
Fraction arithmetic normalizes on every multiply and is ~25x slower at
weight 500.  Fractions of w are formed only where w is written as text.
Both Popa routes divide the integer scalars of the product sum and square
term by their gcd before the sum and put it back in the final scale: over
k <= 200 the gcd has a median 440 bits, each weight's largest scalar a
median 537.

Most of the evaluated sum's cost is scaling each pair's product up to a
common denominator.  The large-prime part of a pair's denominator is nested
in the weight, so each class sum takes its terms i descending, where the
lcm grows in small steps, and adds them in runs of ``RUN`` terms, each over
the lcm of its own pair denominators: at k = 500 the multipliers
lcm / (den1 den2) average about 105 bits over the runs' lcms, against 350
over the lcm of all of a sum's terms.  Each multiplier meets the smaller
weight's point value before the product of the two, not the product itself.
The order, the runs and where the multiplier is applied change no integer of
the result.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from pathlib import Path
from typing import Container, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ConsistencyError, DomainError, MissingWeightError
from .exact import INFINITY, Valuation, bernoulli, divisor_power_sum, fill_tangent_numbers, valuation, zeta_ratio_terms
from .exact import excerpt, format_rational, parse_table_row
from .qmring import E2, GradedForm, serre_derivative

#: integers nums, den with w_{a,k} = nums[a] / den; E4-exponent a, b = (k-4a)/6 implied
IntegerView = tuple[dict[int, int], int]

#: terms per run of ``_pointwise_convolution``'s sum
RUN = 8

#: the weight-2 constant d_2 = -1/8 (the general formula below evaluated at k=2)
D2 = Fraction(-1, 8)


def elliptic_exponents(k: int) -> tuple[int, int, int]:
    """(m, delta, epsilon) with k = 12m + 4 delta + 6 epsilon, delta < 3 and epsilon < 2, for even k >= 4.

    k = delta mod 3 and k/2 = epsilon mod 2, so both are read off k directly.
    """
    if k < 4 or k % 2:
        raise DomainError(f"k must be even and >= 4, got {k}")
    delta, epsilon = k % 3, k // 2 % 2
    return (k - 4 * delta - 6 * epsilon) // 12, delta, epsilon


def exponents(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = k, a ascending: (delta + 3j, epsilon + 2(m - j)) for j = 0 .. m."""
    m, delta, epsilon = elliptic_exponents(k)
    return [(delta + 3 * j, epsilon + 2 * (m - j)) for j in range(m + 1)]


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
    each weight, and ``extend`` runs it at the weights 12 * 2^m and
    12 * 2^m + 2.  Besides the axioms ``__init__`` sets, every weight, built
    or loaded (a dump's w(4) and w(6) too), enters through one door,
    ``_store``: it must give E_k's first two q-coefficients
    (``_check_q_coefficients``) and have every w_{a,k} > 0.

    Each weight is held in one form, its reduced integer view in ``_views``:
    integers nums, den with w_{a,k} = nums[a] / den, den > 0 the lcm of the
    reduced denominators (so gcd(den, *nums) = 1), a ascending as in
    ``exponents(k)``.  ``integer_view`` returns it as stored to every route and
    check; ``w_vector`` forms Fractions from it on each call, for the readers
    that write w as text (``wk`` and ``dump_csv``).  Entries are immutable once
    present, and so is every ``GradedForm``, so ``graded_form(k)`` is built
    once and kept in ``_graded``, the one memo, which the graded Popa route
    and the q-series oracle share for the life of the table; neither
    ``extend``, ``load_csv`` nor the phi routes fill it.
    """

    def __init__(self) -> None:
        self._views: dict[int, IntegerView] = {4: ({1: 1}, 1), 6: ({0: 1}, 1)}
        self._graded: dict[int, GradedForm] = {}

    def __contains__(self, k: int) -> bool:
        return k in self._views

    def weights(self) -> list[int]:
        return sorted(self._views)

    def max_weight(self) -> int:
        return self.weights()[-1]

    def integer_view(self, k: int) -> IntegerView:
        """w(k) as stored: integers nums, den with w_{a,k} = nums[a] / den, reduced, a ascending.

        The result is shared, and its reader must not change it.
        """
        view = self._views.get(k)
        if view is None:
            if k < 4 or k % 2:
                raise DomainError(f"k must be even and >= 4, got {k}")
            raise MissingWeightError(f"weight {k} not in table (extend first)")
        return view

    def w_vector(self, k: int) -> dict[int, Fraction]:
        """w(k) as Fractions, formed from ``integer_view(k)`` on each call."""
        nums, den = self.integer_view(k)
        return {a: Fraction(n, den) for a, n in nums.items()}

    # -- building -------------------------------------------------------------

    def extend(self, k_max: int) -> "EisensteinTable":
        """Fill all even weights up to k_max by the convolution recurrence; returns self.

        Each missing weight is evaluated once by the class sums
        (``rademacher_expand``).  At each weight k = 12 * 2^m and
        k = 12 * 2^m + 2 (m >= 1) Popa's recurrence (``popa_expand``, route
        ``precancelled``, which reads only the stored integer views of
        4 .. k - 2) is evaluated too and must agree exactly, or
        ``ConsistencyError`` is raised.  Every built weight then passes
        the door a loaded one passes (``_store``), whose value check reads
        the tangent numbers that are built first, in one pass, to the largest
        missing weight.

        The sums read each weight's values at the nodes y = 0, 1, -1, ...,
        as many as any weight up to k_max needs (len(exponents(k)) + 1 <=
        k // 12 + 2).  They are held for this call only: a weight, loaded or
        built, is evaluated the first time a sum reads it (the sums for k read
        4 .. k - 4), and all are dropped on return.  So are the class values
        C_i and the class sums in ``sums``: each sum is taken on first use and
        held from the first weight it serves to the last (A2(s) from 4s to
        4s + 2, B2(s) from 4s + 2 to 4s + 4).
        """
        nodes = k_max // 12 + 2
        points: dict[int, tuple[list[int], int]] = {}
        sums: dict[tuple[str, int], tuple[list[int], int]] = {}
        missing = [k for k in range(8, k_max + 1, 2) if k not in self]
        if missing:
            fill_tangent_numbers(missing[-1] // 2)
        for k in missing:
            for m in range(4, k - 3, 2):
                if m not in points:
                    points[m] = _evaluate(m, self.integer_view(m), nodes)
            view = rademacher_expand(k, points, sums)
            if _cross_checked(k) and popa_expand(k, self, route="precancelled") != view:
                raise ConsistencyError(f"the convolution and Popa's recurrence disagree at weight {k}")
            self._store(k, view)
        return self

    def _store(self, k: int, view: IntegerView) -> None:
        """Store w(k)'s reduced integer view: the one door into ``_views`` besides ``__init__``.

        ``ConsistencyError`` unless the view gives E_k's first two
        q-coefficients (``_check_q_coefficients``) and every w_{a,k} is
        positive: w(4) and w(6) are, and so is every multiplier of the
        convolution recurrence.  A reduced view has den > 0, so the sign of
        w_{a,k} is that of nums[a].
        """
        _check_q_coefficients(k, view)
        nonpositive = [a for a, n in view[0].items() if n <= 0]
        if nonpositive:
            raise ConsistencyError(
                f"weight {k}: w_{{a,k}} <= 0 for a in {nonpositive}, but every w_{{a,k}} is positive"
            )
        self._views[k] = view

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

    def e_basis_numerators(self, k: int) -> IntegerView:
        """Integers nums, scale with w_a r_4^a r_6^b = nums[a] / scale, so E_k = sum nums[a] / (scale r_k) E4^a E6^b.

        r_4^a r_6^b = 2^b / (45^a 945^b) goes over 45^A 945^B, the largest powers
        at weight k, and each w_a over its integer view's denominator.  r_k =
        2 zeta(k)/pi^k is left to the caller: one division per result, not per
        term.  Reads w(k) only, as its integer view: no point value of the
        convolution is evaluated and no Fraction is formed.
        """
        pairs = exponents(k)
        (a0, b_top), a_top = pairs[0], pairs[-1][0]
        lifted, den = self.integer_view(k)
        nums = {}
        step = 45 ** (a_top - a0) << b_top  # 2^b 45^(a_top - a) 945^(b_top - b), carried from one pair to the next
        for a, _ in pairs:
            nums[a] = lifted[a] * step
            step = step // (4 * 45**3) * 945**2
        return nums, den * 45**a_top * 945**b_top

    # -- persistence -------------------------------------------------------------

    def dump_csv(self, path: Union[str, Path]) -> None:
        """Write all entries as CSV rows (k, a, b, num/den), sorted, each ended by CRLF.

        The bytes are those of ``csv.writer``'s defaults: no field needs
        quoting.  Every row is formatted before the path is opened, so a value that
        ``format_rational`` refuses raises ``DomainError`` with no file
        written and an existing file left as it was.
        """
        text = "".join(
            f"{k},{a},{(k - 4 * a) // 6},{format_rational(c)}\r\n"
            for k in self.weights()
            for a, c in self.w_vector(k).items()
        )
        with open(path, "w", newline="") as fh:
            fh.write("k,a,b,w\r\n" + text)

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "EisensteinTable":
        """Re-ingest a dump; validates its index structure, then stores each weight through ``_store``.

        The file is read in the grammar ``dump_csv`` writes, one line at a
        time: the header line ``k,a,b,w``, then one row per line, each line
        ended by LF, CRLF or CR (the last may have none; text mode reads each
        as LF) and split on commas, with no quoting.  A row that
        ``parse_table_row`` refuses (not four fields k, a, b, w that
        ``parse_integer`` reads for k, a, b and ``parse_ratio`` for w: ASCII
        digits only; the error quotes its reason), whose exponents are
        negative or do not satisfy 4a + 6b = k, whose weight is below 4, or
        that repeats an earlier (k, a), raises ``ConsistencyError``, quoting
        the line only as far as ``excerpt`` does; so does a loaded weight
        missing a row for any (a, b) with 4a + 6b = k, or one that ``_store``
        refuses: values that do not give E_k's first two q-coefficients, or a
        value w <= 0.  That check pins w(4) and w(6), one coefficient each, to
        their axioms.  Weights need not be contiguous: ``extend`` fills any gap.

        Every check runs on the integer pairs (num, den) of the rows
        (``parse_ratio``), and ``_store`` on their integer view over the lcm of
        the row denominators, divided by its gcd, so no Fraction is formed.
        Each weight's rows are dropped as it is converted.  Once every weight
        has its rows, the tangent numbers the value checks read are built in
        one pass, to the largest weight.
        """
        table = cls()
        # k -> (numerators by a, denominators by a); a (num, den) tuple per row, kept to
        # the end of the load and then freed, raised the warm runs' peak RSS by up to 0.3 MB
        loaded: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
        with open(path) as fh:  # text mode: a CRLF line end reads as LF
            header = next(fh, "").removesuffix("\n")
            if header != "k,a,b,w":
                raise ConsistencyError(f"unexpected table header {excerpt(header)}")
            for line in fh:
                line = line.removesuffix("\n")
                try:
                    k, a, b, n, d = parse_table_row(line)
                except DomainError as exc:
                    raise ConsistencyError(f"bad table row {excerpt(line)}: {exc}") from exc
                if 4 * a + 6 * b != k:
                    raise ConsistencyError(f"bad index row {excerpt(line)}: 4a+6b != k")
                if a < 0 or b < 0:
                    raise ConsistencyError(f"bad index row {excerpt(line)}: negative exponent")
                if k < 4:
                    raise ConsistencyError(f"bad index row {excerpt(line)}: weight {k} is below 4")
                nums, dens = loaded.setdefault(k, ({}, {}))
                if a in nums:
                    raise ConsistencyError(f"duplicate row {excerpt(line)} for (k, a) = ({k}, {a})")
                nums[a], dens[a] = n, d
        # every row is index-checked and unique, so a weight is whole iff it has
        # m + 1 = dim M_k rows.  The weights below the first that is not are stored
        # before its error is raised; only if every weight is whole are the tangent
        # numbers that the value checks read built, once, to the largest weight
        weights = sorted(loaded)
        short = next((k for k in weights if len(loaded[k][0]) <= elliptic_exponents(k)[0]), None)
        if short is None and weights:
            fill_tangent_numbers(weights[-1] // 2)
        for k in weights:
            nums, dens = loaded.pop(k)
            if k == short:
                # the error names at most three missing pairs, taken lazily in the
                # order of exponents(k), and counts the rest
                m, delta, epsilon = elliptic_exponents(k)
                absent = m + 1 - len(nums)
                pairs = ((delta + 3 * j, epsilon + 2 * (m - j)) for j in range(m + 1) if delta + 3 * j not in nums)
                missing = list(itertools.islice(pairs, 3))
                more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
                raise ConsistencyError(f"weight {k} is missing rows for (a, b) in {missing}{more}")
            table._store(k, _reduced(*_lift(k, nums, dens)))
        return table


def _lift(k: int, nums: Mapping[int, int], dens: Mapping[int, int]) -> IntegerView:
    """Integers lifted, den with lifted[a] / den = nums[a] / dens[a], den the lcm of the dens, a ascending."""
    den = math.lcm(*dens.values())
    return {a: nums[a] * (den // dens[a]) for a, _ in exponents(k)}, den


def _reduced(nums: dict[int, int], den: int) -> IntegerView:
    """nums / den as the table stores it: over gcd(den, *nums), negated if den < 0 (as ``from_ratio``), so den > 0."""
    g = math.gcd(den, *nums.values()) * (-1 if den < 0 else 1)
    return ({a: n // g for a, n in nums.items()}, den // g) if g != 1 else (nums, den)


def _check_q_coefficients(k: int, view: IntegerView) -> None:
    """Raise ``ConsistencyError`` unless w(k) = nums[a] / den gives E_k = 1 - (2k/B_k) q + O(q^2).

    With u_a = w_a r_4^a r_6^b / r_k and E_4^a E_6^b = 1 + (240a - 504b) q + ...,
    that is sum u_a = 1 and sum u_a (240a - 504b) = -2k/B_k.  Along the
    exponents a = a0 + 3j, b = b0 - 2j (j = 0 .. J) of weight k,
    r_4^a r_6^b = r_4^a0 r_6^b0 (49/20)^j, as r_4^3 / r_6^2 = 49/20, so each
    sum is one pass over the integers nums[a] 49^j 20^(J-j), over
    45^a0 945^b0 20^J den / 2^b0.  The right sides are r_k = T_(k/2) /
    ((2^k - 1) (k-1)!) and -2k r_k / B_k = (-1)^(k/2) 2^(k+1) / (k-1)!
    (``_q1_ratio``), compared by cross-multiplication: no Bernoulli number
    and no Fraction is formed.
    """
    nums, den = view
    pairs = exponents(k)
    (a0, b0), top = pairs[0], len(pairs) - 1
    sum0 = sum1 = 0
    scale = step = 20**top  # 49^j 20^(top - j), carried from one j to the next
    for a, b in pairs:
        x = nums[a] * step
        sum0 += x
        sum1 += (240 * a - 504 * b) * x
        step = step // 20 * 49
    scale *= 45**a0 * 945**b0 * den
    t, d = zeta_ratio_terms(k)
    if sum0 * d << b0 != t * scale:
        raise ConsistencyError(f"weight {k}: the constant q-coefficient of E_k is not 1")
    t, d = _q1_ratio(k)
    if sum1 * d << b0 != t * scale:
        raise ConsistencyError(f"weight {k}: the q^1 coefficient of E_k is not -2k/B_k")


def _q1_ratio(k: int) -> tuple[int, int]:
    """-2k r_k / B_k, the q^1 coefficient of r_k E_k, as the integers (-1)^(k/2) 2^(k+1) and (k-1)!."""
    return (-1 if k // 2 % 2 else 1) << (k + 1), math.factorial(k - 1)


# ---------------------------------------------------------------------------
# the convolution recurrence


def _cross_checked(k: int) -> bool:
    """True at the weights 12 * 2^m and 12 * 2^m + 2, m >= 1, where ``extend``
    also evaluates Popa's recurrence."""
    q, r = divmod(k, 12)
    return r in (0, 2) and q >= 2 and q & (q - 1) == 0


def _check_domain(k: int) -> None:
    if k == 6:
        raise DomainError("k = 6 makes the left factor k/2 - 3 vanish")
    if k < 8 or k % 2:
        raise DomainError(f"k must be even and >= 8, got {k}")


def _require_weights(have: Container[int], needed: Iterable[int]) -> None:
    missing = sorted({m for m in needed if m not in have})
    if missing:
        raise MissingWeightError(f"table is missing prerequisite weights {missing}")


def _nodes(count: int) -> list[int]:
    """The first ``count`` nodes of the evaluated sum, y = 0, 1, -1, 2, -2, ..."""
    return [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(count)]


def _evaluate(k: int, view: IntegerView, count: int) -> tuple[list[int], int]:
    """Integers vals, den with R(y) = vals[i] / den at the first ``count`` nodes y (``_nodes``).

    G_k(1, z) = z^b0 R(z^2), b0 = 0 or 1, and R's coefficient of y^j is
    w_{a,k} at b = b0 + 2j.  R is split into its halves, R(y) = E(y^2) +
    y O(y^2), and each half is evaluated by Horner in y^2 from the integer
    view nums, den of w(k), once for both nodes y and -y.
    """
    nums, den = view
    ascending = [nums[a] for a, _ in reversed(exponents(k))]  # y^0, y^1, ...
    even, odd = ascending[0::2][::-1], ascending[1::2][::-1]  # Horner order, highest first
    vals = [ascending[0]]
    for y in range(1, count // 2 + 1):
        t = y * y
        e = o = 0
        for c in even:
            e = e * t + c
        for c in odd:
            o = o * t + c
        o *= y
        vals += (e + o, e - o)
    return vals[:count], den


def _pointwise_convolution(
    terms: Sequence[tuple[int, Hashable, Hashable]],
    points: Mapping[Hashable, tuple[list[int], int]],
    count: int,
) -> tuple[list[int], int]:
    """Accumulate coeff * X_1(y) X_2(y) at the first ``count`` nodes y over integers.

    ``terms`` holds (coeff, key1, key2), and ``points`` maps each key to
    integers vals, den, the point values vals[i] / den of X at the nodes.
    Each sum is kept over a common denominator, and each pair costs one
    product of two point values per node, not one per pair of coefficients.
    The pair's multiplier meets the first point value, the smaller weight's
    in ``_class_square``'s terms, as mult * x1 * x2, before the product with
    the second.  The terms are summed in runs of ``RUN`` consecutive terms,
    each over the lcm of its own pair denominators, and the run sums then
    over the running lcm of the runs.  Most of the sum's cost is scaling
    each product by lcm / (den1 den2), and a run keeps that multiplier
    short.  Taking each run's lcm once, up front, leaves its sum nothing to
    rescale: a running lcm within the runs made the multipliers shorter but
    the build about 5% slower.  The result is the same pair of integers in
    any order and any grouping: den is the lcm of all pair denominators, and
    vals[i] / den the exact sum at node i.
    """
    total = [0] * count
    total_den = 1
    for start in range(0, len(terms), RUN):
        run = terms[start : start + RUN]
        pair_dens = [points[x1][1] * points[x2][1] for _, x1, x2 in run]
        acc_den = math.lcm(*pair_dens)
        acc = [0] * count
        for (coeff, x1, x2), pair_den in zip(run, pair_dens):
            vals1, vals2 = points[x1][0], points[x2][0]
            mult = acc_den // pair_den * coeff
            acc = [v + mult * v1 * v2 for v, v1, v2 in zip(acc, vals1, vals2)]
        lcm = total_den // math.gcd(total_den, acc_den) * acc_den
        grow, mult = lcm // total_den, lcm // acc_den
        total = [grow * t + mult * v for t, v in zip(total, acc)]
        total_den = lcm
    return total, total_den


def _node_count(k: int) -> int:
    """The nodes ``rademacher_expand`` reads for w(k): one per unknown, and one to check."""
    return len(exponents(k)) + 1


def _class_values(i: int, points: Mapping[int, tuple[list[int], int]]) -> tuple[list[int], int]:
    """C_i = A_i + B_i = (4i - 1) G_4i + (4i + 1) G_(4i+2) at the nodes, over lcm(den(4i), den(4i + 2))."""
    (vals_a, den_a), (vals_b, den_b) = points[4 * i], points[4 * i + 2]
    den = math.lcm(den_a, den_b)
    grow_a, grow_b = den // den_a * (4 * i - 1), den // den_b * (4 * i + 1)
    return [grow_a * a + grow_b * b for a, b in zip(vals_a, vals_b)], den


def _class_square(
    name: str,
    s: int,
    points: Mapping[int, tuple[list[int], int]],
    values: dict[tuple[str, int], tuple[list[int], int]],
    have: int,
) -> tuple[list[int], int]:
    """X2(s) = sum_{i+j=s; i,j >= 1} X_i X_j for the class X = ``name``, "A", "B" or "C".

    With b_m = (m - 1) G_m, A_i = b_4i and B_i = b_(4i+2) are read from
    ``points`` (weight 4i, 4i + 2), their factors (m - 1) taken into each
    term's coefficient, and C_i = A_i + B_i from ``values[("C", i)]``
    (``_class_values``), formed there on first use.  The terms i and s - i
    are equal, so the sum is folded: the square term X_(s/2)^2 (s even)
    first, then each pair once, doubled, i descending, where the lcm of the
    pair denominators grows in small steps.  It is taken at as many nodes as
    the weights it serves read (A2(s): 4s and 4s + 2; B2(s): 4s + 2 and
    4s + 4; C2(s): 4s + 2), but no more than ``have``, the nodes ``points``
    holds.
    """
    served = {"A": (4 * s, 4 * s + 2), "B": (4 * s + 2, 4 * s + 4), "C": (4 * s + 2,)}[name]
    count = min(have, max(map(_node_count, served)))
    folded = [(1, s // 2)] if s % 2 == 0 else []
    folded += [(2, i) for i in range((s + 1) // 2 - 1, 0, -1)]
    if name == "C":
        for i in range(1, s):
            if ("C", i) not in values:
                values["C", i] = _class_values(i, points)
        return _pointwise_convolution([(c, ("C", i), ("C", s - i)) for c, i in folded], values, count)
    shift = 0 if name == "A" else 2
    terms = []
    for c, i in folded:
        m1, m2 = 4 * i + shift, 4 * (s - i) + shift
        terms.append((c * (m1 - 1) * (m2 - 1), m1, m2))
    return _pointwise_convolution(terms, points, count)


def _newton(k: int, ts: list[int], vals: list[int]) -> list[int]:
    """The integer coefficients, t^0 first, of the polynomial of degree < len(ts) with values vals at ts.

    Newton's divided differences: the polynomial has integer coefficients
    and the nodes are integers, so every divided difference is an integer
    and every division exact; a remainder raises ``ConsistencyError``.
    """
    n = len(ts)
    c = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(c[i] - c[i - 1], ts[i] - ts[i - j])
            if r:
                raise ConsistencyError(f"weight {k}: a divided difference is not an integer")
            c[i] = q
    # Newton form to coefficients of t^0 .. t^(n-1)
    coef = [0] * n
    for i in range(n - 1, -1, -1):
        t_i = ts[i]
        for d in range(n - 1 - i, 0, -1):
            coef[d] = coef[d - 1] - t_i * coef[d]
        coef[0] = c[i] - t_i * coef[0]
    return coef


def _interpolate(k: int, vals: list[int]) -> dict[int, int]:
    """The integers N_a of R(y) = sum_a N_a y^((b - b0)/2) from its values at the first n + 1 nodes.

    n = len(exponents(k)), and vals[i] is R at the i-th node of ``_nodes``:
    y = 0, 1, -1, 2, -2, ...  Each pair of nodes y, -y gives the values of
    both halves of R(y) = E(y^2) + y O(y^2) at t = y^2, E = (R(y) + R(-y)) / 2
    and O = (R(y) - R(-y)) / (2y), and each half is interpolated on its own
    (``_newton``): E on ceil(n/2) nodes, O on floor(n/2).  For n even the
    halves use y = +-1 .. +-n/2 and y = 0 checks the interpolant; for n odd E
    also uses y = 0 and y = (n + 1)/2 checks it.  A half that is not an
    integer, a division with a remainder, or a mismatch at the check node
    raises ``ConsistencyError``.
    """
    pairs = exponents(k)
    n = len(pairs)
    h = n // 2
    ts = [0] if n % 2 else []
    even_vals = [vals[0]] if n % 2 else []
    odd_vals = []
    for y in range(1, h + 1):
        plus, minus = vals[2 * y - 1], vals[2 * y]
        e, r = divmod(plus + minus, 2)
        o, s = divmod(plus - minus, 2 * y)
        if r or s:
            raise ConsistencyError(f"weight {k}: the values at y = {y} and y = {-y} have no integer halves")
        ts.append(y * y)
        even_vals.append(e)
        odd_vals.append(o)
    even, odd = _newton(k, ts, even_vals), _newton(k, ts[n % 2 :], odd_vals)
    coef = [0] * n  # y^0 .. y^(n-1)
    coef[::2], coef[1::2] = even, odd
    y_check = (n + 1) // 2 if n % 2 else 0
    check = 0
    for v in reversed(coef):
        check = check * y_check + v
    if check != vals[n if n % 2 else 0]:
        raise ConsistencyError(f"weight {k}: the interpolant misses the check node y = {y_check}")
    # y^j is the pair listed j-th from the end
    return {a: coef[n - 1 - j] for j, (a, _) in enumerate(pairs)}


def rademacher_expand(
    k: int,
    points: Mapping[int, tuple[list[int], int]],
    sums: Optional[dict[tuple[str, int], tuple[list[int], int]]] = None,
) -> IntegerView:
    """w(k) from the convolution identity, split by weight class mod 4 (the production path)

        (k/2-3)(k-1)(k+1) G_k = 3 sum_{m1+m2=k; m1,m2 >= 4} b_m1 b_m2,   b_m = (m-1) G_m,

    with A_i = b_4i, B_i = b_(4i+2), C_i = A_i + B_i and X2(s) =
    sum_{i+j=s; i,j >= 1} X_i X_j (``_class_square``):

        sum_{m1+m2=4s} b_m1 b_m2   = A2(s) + B2(s-1),
        sum_{m1+m2=4s+2} b_m1 b_m2 = 2 sum_{i+j=s} A_i B_j = C2(s) - A2(s) - B2(s).

    A2(s) and B2(s) each serve two weights, so a pair of weights 4s, 4s + 2
    costs three folded sums of about s/2 terms each, not two folded sums and
    a mixed one.  The identity is evaluated at (G4, G6) = (1, z) as one in R,
    G_k(1, z) = z^b0 R(z^2), where B2(s-1), a sum over two weights 2 mod 4,
    carries the factor z^2 = y once per node, at the first n + 1 nodes
    y = 0, 1, -1, 2, -2, ..., n = len(exponents(k)), and w(k) recovered once
    by ``_interpolate`` and returned as the table stores it, reduced by
    ``_reduced``.  ``points`` maps each even weight 4 .. k-4 to its values at
    no fewer than n + 1 nodes, as ``_evaluate`` gives them.  ``sums`` holds,
    for that one ``points`` map, the C_i and each class sum from the first
    weight it serves to its last (``extend`` keeps one for its call);
    without it they are taken for this call only.  k = 6 is outside the
    domain (the left factor k/2-3 vanishes there).
    """
    _check_domain(k)
    count = _node_count(k)
    _require_weights(points, range(4, k - 3, 2))
    have = min(len(points[m][0]) for m in range(4, k - 3, 2))
    if have < count:
        raise DomainError(f"weight {k} needs point values at {count} nodes")
    sums = {} if sums is None else sums

    def square(name: str, t: int, last: bool) -> tuple[list[int], int]:
        # X2(t), held in sums from its first weight to its last
        key = (name + "2", t)
        held = sums.pop(key, None) if last else sums.get(key)
        if held is None:
            held = _class_square(name, t, points, sums, have)
            if not last:
                sums[key] = held
        return held

    s = k // 4
    if k % 4 == 0:
        vals_a, den_a = square("A", s, last=False)
        vals_b, den_b = square("B", s - 1, last=True)
        den = math.lcm(den_a, den_b)
        grow_a, grow_b = den // den_a, den // den_b
        vals = [grow_a * a + y * grow_b * b for y, a, b in zip(_nodes(count), vals_a, vals_b)]
    else:
        vals_a, den_a = square("A", s, last=True)
        vals_b, den_b = square("B", s, last=False)
        vals_c, den_c = square("C", s, last=True)
        den = math.lcm(den_a, den_b, den_c)
        grow_a, grow_b, grow_c = den // den_a, den // den_b, den // den_c
        vals = [grow_c * c - grow_a * a - grow_b * b for c, a, b in zip(vals_c, vals_a, vals_b)]
    return _reduced({a: 3 * n for a, n in _interpolate(k, vals).items()}, den * (k // 2 - 3) * (k - 1) * (k + 1))


def rademacher_expand_folded(k: int, table: EisensteinTable) -> IntegerView:
    """``rademacher_expand`` on point values of ``table`` evaluated for this call.

    Only the benchmark needs it: ``bench/spans.py`` traces this name.
    """
    count = _node_count(k)
    return rademacher_expand(k, {m: _evaluate(m, table.integer_view(m), count) for m in table.weights() if m < k - 2})


# ---------------------------------------------------------------------------
# Popa's recurrence


def popa_expand(k: int, table: EisensteinTable, route: str = "graded") -> IntegerView:
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
    Both return the reduced integer view (``_reduced``, which makes den > 0
    where c_k d_k < 0), so each agrees with the table iff it == ``integer_view(k)``.
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
    low, high = 6, math.factorial(k - 5)  # j! and (k-j-2)!, carried from one odd j to the next
    for j in range(3, h - 1, 2):
        out.append((sign * (math.comb(h, j) + math.comb(h - 2, j)) * low * high, j + 1, k - j - 1))
        low *= (j + 1) * (j + 2)
        high //= (k - j - 2) * (k - j - 3)
    if k % 4 == 0:
        # the loop stops short of j = h - 1, where low = high = (h-1)!
        out.append((h * low * high, h, h))
    return out


def _popa_graded(k: int, table: EisensteinTable) -> IntegerView:
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
    # the sum is 2^(k+2) c_k d_k G_k / g: w_{a,k} = its coefficient / (r4^a r6^b), r4 = 1/45, r6 = 2/945, over 2^b_top
    cd = popa_c(k) * popa_d(k)
    up, den = cd.denominator * g, den * cd.numerator << (k + 2)
    for (e2, a, b), n in nums.items():
        if e2:
            raise ConsistencyError(
                f"weight-2 generator failed to cancel at weight {k}: residue {Fraction(n * up, den)} on E2^{e2} E4^{a} E6^{b}"
            )
    pairs = exponents(k)
    a0, b_top = pairs[0]
    vec: dict[int, int] = {}
    step = up * 45**a0 * 945**b_top  # up 45^a 945^b 2^(b_top - b), carried from one pair to the next
    for a, b in pairs:
        if (0, a, b) in nums:
            vec[a] = nums[0, a, b] * step
        step = step // 945**2 * (4 * 45**3)
    return _reduced(vec, den << b_top)


def _popa_precancelled(k: int, table: EisensteinTable) -> IntegerView:
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

    # the table's integer views of w(m), as stored, and no point value of the
    # convolution this route checks.  Every term is over 2^(k+2) less the
    # common factor g of the product sum and square term, as in the graded
    # route: acc is 2^(k+2) c_k d_k G_k / g.  The terms are taken square term
    # first and m1 descending, the order ``rademacher_expand`` sums in, so the
    # running lcm grows in small steps
    common = _popa_common_terms(k)
    g = math.gcd(*[num for num, _, _ in common])
    for num, m1, m2 in reversed(common):
        (nums1, den1), (nums2, den2) = table.integer_view(m1), table.integer_view(m2)
        conv: dict[int, int] = {}
        for a1, v1 in nums1.items():
            for a2, v2 in nums2.items():
                conv[a1 + a2] = conv.get(a1 + a2, 0) + v1 * v2
        add(num // g, den1 * den2, conv)

    # combined closed form of the G_2 and derivative terms: after cancellation
    # they contribute -(d_{k-2}/2) * sum w_{a,k-2} ( (7a/2) G4^(a-1) G6^(b+1)
    #                                              + (15b/7) G4^(a+2) G6^(b-1) ),
    # with 7a/2 = 49a/14 and 15b/7 = 30b/14 over a common 14; d_{k-2}/2 is taken over 2^(k+2) / g
    half_dk2 = popa_d(k - 2) * 2 ** (k + 1) / g
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
    up = cd.denominator * g
    return _reduced({a: acc[a] * up for a, _ in exponents(k)}, acc_den * cd.numerator << (k + 2))


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


def min_valuation2(view: IntegerView) -> Valuation:
    """min_a nu_2(w_{a,k}) = min_a nu_2(nums[a]) - nu_2(den) of an integer view (nonempty); INFINITY if all are 0."""
    nums, den = view
    if not nums:
        raise DomainError("empty coefficient vector")
    best = min(valuation(n, 2) for n in nums.values())
    return best if best is INFINITY else best - valuation(den, 2)
