from flagcalc.polyint import LinearPowerCache, poly_mul


def test_poly_mul_basic():
    a = {(1, 0): 1, (0, 1): 1}
    assert poly_mul(a, a) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly_mul(a, {}) == {}


def test_linear_power_cache():
    cache = LinearPowerCache()
    coefs = (2, -1, 0)
    assert cache.power(coefs, 0) == {(0, 0, 0): 1}
    assert cache.power(coefs, 1) == {(1, 0, 0): 2, (0, 1, 0): -1}
    square = cache.power(coefs, 2)
    assert square == {(2, 0, 0): 4, (1, 1, 0): -4, (0, 2, 0): 1}
    assert cache.power(coefs, 2) is square  # served from cache
