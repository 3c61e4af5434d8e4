"""Elementary number theory: factoring, primality, Euler's phi, primitive
roots and primes in residue classes.

Every answer rests on prime_factors, the package's one trial-division loop.
The inputs are conductors, residue sizes (up to MAX_RESIDUE), character
moduli and Dixon primes, small enough for trial division to be simplest.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending; [] for n < 2."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def is_prime_power(n: int) -> bool:
    return len(prime_factors(n)) == 1


MAX_RESIDUE = 10 ** 12  # trial division of q then takes at most 10^6 steps


def check_residue_size(q: int, m: int) -> None:
    """ValueError unless q is a prime power up to MAX_RESIDUE prime to m."""
    if q > MAX_RESIDUE or not is_prime_power(q):
        raise ValueError(f"residue size q = {q} must be a prime power up "
                         f"to {MAX_RESIDUE:,}")
    if gcd(m, q) != 1:
        raise ValueError(f"residue size q = {q} is wild: not prime to {m}")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    for p in prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod p (p prime); 1 for p = 2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def smallest_prime_in_class(k: int, m: int, lower: int = 0) -> int:
    """Least prime q = k mod m with q >= lower (k coprime to m, or m = 1)."""
    if gcd(k % m, m) != 1:
        raise ValueError(f"no primes in class {k} mod {m}")
    q = lower + (k - lower) % m
    while True:
        if is_prime(q):
            return q
        q += m
