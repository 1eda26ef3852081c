"""Exact computation with Eisenstein series over the weight-4/6 generators.

The package computes the expansion of G_k = 2 zeta(k) E_k over monomials
G_4^a G_6^b by two independent recurrences, extracts the monic polynomial
phi_k in the j-invariant that encodes the non-elliptic zeros of E_k, and
certifies irreducibility of phi_k 2-adically (Dumas' criterion, Newton
polygons) and over finite fields (distinct-degree patterns).  All arithmetic
is exact rational; there is no floating point anywhere.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    EisenError,
    InvalidPrimeError,
    MissingWeightError,
    WeightMismatchError,
)
from .exact import (
    INFINITY,
    Valuation,
    bernoulli,
    digit_sum_base2,
    valuation,
    zeta_ratio,
)
from .qmring import E2, E4, E6, ONE, GradedForm, serre_derivative, substitute_q_expansion
from .eisenstein import (
    D2,
    EisensteinTable,
    min_valuation2,
    popa_expand,
    q_expansion_direct,
    rademacher_expand,
    rademacher_expand_folded,
)
from .gekeler import (
    GekelerPolynomial,
    elliptic_exponents,
    phi_by_division,
    phi_closed_form,
    valuation_profile,
)
from .irreducibility import (
    IrreducibilityCertificate,
    NewtonPolygon,
    assemble_pattern_certificate,
    distinct_degree_pattern,
    dumas_check,
    finite_field_degree_patterns,
    newton_polygon,
    primitive_integer_polynomial,
    recheck_dumas_certificate,
    recheck_pattern_certificate,
    select_witness_primes,
)
from .replicate import (
    CheckReport,
    check_conjecture,
    check_lemma_ineq,
    check_lemma_valsum,
    check_min_valuation,
    check_theorem_main,
    gekeler_scan,
    selftest,
)

__version__ = "0.1.0"
