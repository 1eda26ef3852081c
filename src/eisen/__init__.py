"""Exact computation with Eisenstein series over the weight-4/6 generators.

The package computes the expansion of G_k = 2 zeta(k) E_k over monomials
G_4^a G_6^b by two independent recurrences, extracts the monic polynomial
phi_k in the j-invariant that encodes the non-elliptic zeros of E_k, and
certifies irreducibility of phi_k 2-adically (Dumas' criterion, Newton
polygons) and over finite fields (distinct-degree patterns).  All arithmetic
is exact rational; there is no floating point anywhere.  Every name is
imported from the module that defines it (``eisen.eisenstein``,
``eisen.replicate``, ...); the package root re-exports nothing.
"""

__version__ = "0.1.0"
