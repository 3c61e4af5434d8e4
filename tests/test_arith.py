"""Elementary number theory, checked against tables and brute force."""

import time
from math import gcd, isqrt

import pytest

from tamekit.arith import (MAX_RESIDUE, check_residue_size, euler_phi,
                           is_prime, is_prime_power, prime_factors,
                           primitive_root, smallest_prime_in_class)

LIMIT = 2000


def _sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 1)
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def _order(g: int, p: int) -> int:
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_is_prime():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert is_prime(101) and not is_prime(1001)


def test_primitive_root_smallest():
    # smallest generator of (Z/p)^*, checked against tables
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(13) == 2
    assert primitive_root(31) == 3
    g = primitive_root(31)
    assert sorted(pow(g, k, 31) for k in range(30)) == list(range(1, 31))


def test_primitive_root_rejects_non_primes():
    # (Z/n)^* of these has no element of order n - 1, so no answer is
    # right; each call raises, and no answer is cached for a later one
    for n in (0, 1, 4, 9, 15, 25):
        for _ in range(2):
            with pytest.raises(ValueError, match="not prime"):
                primitive_root(n)


def test_euler_phi_small_values():
    # first values of the totient, cross-checked against a sieve
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(21) == 12
    assert euler_phi(49) == 42


def test_prime_power_predicate():
    yes = [2, 3, 4, 5, 8, 9, 27, 49, 121, 128]
    no = [0, 1, 6, 10, 12, 100]
    assert all(is_prime_power(n) for n in yes)
    assert not any(is_prime_power(n) for n in no)


def test_residue_size_check_is_bounded():
    # the largest prime below the bound is accepted, trial division up to
    # its square root within budget; the primes 10^12 + 39 and 2^61 - 1
    # above it are rejected before any division
    start = time.perf_counter()
    check_residue_size(999999999989, 3)
    for q in (10 ** 12 + 39, 2 ** 61 - 1):
        with pytest.raises(ValueError, match=f"up to {MAX_RESIDUE:,}"):
            check_residue_size(q, 3)
    assert time.perf_counter() - start < 2
    check_residue_size(49, 3)
    with pytest.raises(ValueError, match="prime power"):
        check_residue_size(6, 5)
    with pytest.raises(ValueError, match="wild"):
        check_residue_size(9, 3)


def test_smallest_prime_in_class():
    assert smallest_prime_in_class(1, 3) == 7
    assert smallest_prime_in_class(2, 3) == 2
    assert smallest_prime_in_class(1, 5) == 11
    assert smallest_prime_in_class(1, 7) == 29
    assert smallest_prime_in_class(1, 9) == 19
    assert smallest_prime_in_class(0, 1) == 2
    # with a lower bound, as Dixon's prime: 1 mod exp(G) and at least
    # max(2|G| + 1, k^2), here for C32 and the trivial group
    assert smallest_prime_in_class(1, 32, 1025) == 1153
    assert smallest_prime_in_class(1, 1, 3) == 3
    assert smallest_prime_in_class(1, 6, 7) == 7
    assert smallest_prime_in_class(1, 6, 8) == 13
    for m in range(1, 13):
        for k in (k for k in range(m) if gcd(k, m) == 1):
            for lower in range(60):
                assert smallest_prime_in_class(k, m, lower) == next(
                    q for q in range(lower, 200)
                    if q % m == k and is_prime(q)), (k, m, lower)


def test_factorisation_reproduces_n():
    prime = _sieve(LIMIT)
    for n in range(1, LIMIT + 1):
        factors = prime_factors(n)
        assert factors == sorted(set(factors)), n
        assert all(prime[p] for p in factors), n
        product = 1
        for p in factors:
            k = 0
            while n % p ** (k + 1) == 0:
                k += 1
            product *= p ** k
        assert product == n, n


def test_primality_and_prime_powers_agree_with_sieve():
    prime = _sieve(LIMIT)
    powers = {p ** k for p in range(2, LIMIT + 1) if prime[p]
              for k in range(1, LIMIT.bit_length() + 1) if p ** k <= LIMIT}
    for n in range(LIMIT + 1):
        assert is_prime(n) == prime[n], n
        assert is_prime_power(n) == (n in powers), n


def test_phi_counts_coprime_residues():
    for n in range(1, LIMIT + 1):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1)
                                   if gcd(a, n) == 1), n


def test_primitive_root_is_smallest_generator():
    prime = _sieve(LIMIT)
    for p in range(3, LIMIT + 1):
        if prime[p]:
            g = primitive_root(p)
            assert _order(g, p) == p - 1, p
            assert all(_order(h, p) < p - 1 for h in range(2, g)), p
