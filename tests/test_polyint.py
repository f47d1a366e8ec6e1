from flagcalc.polyint import poly_mul


def test_poly_mul_basic():
    a = {(1, 0): 1, (0, 1): 1}
    assert poly_mul(a, a) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly_mul(a, {}) == {}

