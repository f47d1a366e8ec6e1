from flagcalc.polyint import LinearPowerCache, poly_mul


def test_poly_mul_basic():
    a = {(1, 0): 1, (0, 1): 1}
    assert poly_mul(a, a) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly_mul(a, {}) == {}


def test_linear_power_cache():
    # packed exponents, width 2: x_1 -> 1, x_2 -> 1 << 2, x_1 x_2 -> 1 + 4
    cache = LinearPowerCache()
    coefs = ((0, 2), (1, -1))  # 2 x_1 - x_2 + 0 x_3, nonzero coefficients only
    assert cache.power(coefs, 0, 2) == {0: 1}
    assert cache.power(coefs, 1, 2) == {1: 2, 4: -1}
    square = cache.power(coefs, 2, 2)
    assert square == {2: 4, 5: -4, 8: 1}
    assert cache.power(coefs, 2, 2) is square  # served from cache
