"""Fixtures shared by the test modules."""

import pytest

from tamekit import characters, localmodel, stickelberger

# The caches that hold work depending on an element's order alone.
ORDER_CACHES = (characters.cyclic_table, stickelberger._order_chars,
                localmodel._ladder_orbit, localmodel._ladder_monomials)


@pytest.fixture
def cold_order_caches():
    """Empty the per-order caches before the test and again after it."""
    for cache in ORDER_CACHES:
        cache.cache_clear()
    yield
    for cache in ORDER_CACHES:
        cache.cache_clear()
