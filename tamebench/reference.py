"""Machine-speed reference: a fixed pure-Python loop, independent of tamekit.

    python3 tamebench/reference.py UNITS

runs UNITS units of sparse polynomial products with Fraction coefficients
held in dicts (the operations tamekit spends its time in) and prints the
seconds they took.  Each unit multiplies two polynomials drawn from a pool
of a few megabytes and stores the product back, so the loop allocates and
touches memory as tamekit does, not only the L1 cache.  ``run.py`` runs
it back to back on one core while the workload runs on the other, so that
the drift of machine speed from one run to the next can be divided out.  The pool and the draws come
from a fixed seed: every sample does the same work.
"""

import random
import sys
import time
from fractions import Fraction

POOL = 4000     # polynomials in the pool
TERMS = 12      # terms per initial polynomial
DEGREE = 36     # exponents are taken mod DEGREE
MODULUS = 10007  # bounds the coefficients' numerators and denominators


def make_pool(rng: random.Random) -> list[dict[int, Fraction]]:
    return [{e: Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
             for e in rng.sample(range(DEGREE), TERMS)}
            for _ in range(POOL)]


def unit(pool: list, rng: random.Random) -> None:
    a = pool[rng.randrange(POOL)]
    b = pool[rng.randrange(POOL)]
    raw = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1 + e2) % DEGREE
            raw[e] = raw.get(e, 0) + c1 * c2
    out = {e: Fraction(c.numerator % MODULUS, c.denominator % MODULUS or 1)
           for e, c in raw.items() if c}
    pool[rng.randrange(POOL)] = out or {0: Fraction(1)}


def main() -> int:
    units = int(sys.argv[1])
    rng = random.Random(1)
    pool = make_pool(rng)
    t0 = time.perf_counter()
    for _ in range(units):
        unit(pool, rng)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
