"""tamekit: exact verification toolkit for tame local Galois module structure.

Layers, bottom up:

- arith: prime factors, primality, prime powers, Euler's phi, primitive
  roots and primes in residue classes; the one home of trial division.
- cyclotomic: exact arithmetic in Q(zeta_n) on the reduced power basis.
- padic: the image of a cyclotomic integer in (Z/p^K)[zeta_p] and its
  exact lambda-adic valuation.
- groups: small finite groups as explicit multiplication tables.
- characters: exact character tables, induction, Adams operations on
  virtual characters.
- stickelberger: the pairing <chi, s> and its symmetrized variant, plus the
  classical identities relating them to induced cyclic characters.
- localmodel: tame monomials c pi^e, each ladder's sigma-orbit as a table
  of coefficient rows, and the resolvends' equivariant determinants.
- gaussjacobi: Gauss and Jacobi sums over prime fields and the unit-index
  quotient J*.
- ledger: representing homomorphisms place by place, as plain data (a
  hom is a tuple of tame monomials, a family a dict of places), and the
  valuation-matching crux check.
- cli: command line front end over all of the above.
"""

from .cyclotomic import CycNum, zeta

__all__ = ["CycNum", "zeta"]
__version__ = "0.1.0"
