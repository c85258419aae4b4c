import pytest
from hypothesis import given, strategies as st

from madic_heisenberg import madic
from madic_heisenberg.errors import (
    IncoherentSequence,
    ModulusMismatch,
    NotAUnit,
    NotTopologicallyNilpotent,
    PrecisionExceeded,
)
from madic_heisenberg.madic import MadicInt


def elems(m, n):
    return st.integers(0, m ** n - 1).map(lambda v: MadicInt(m, n, v))


class TestConstruction:
    def test_negative_reduces(self):
        assert madic.from_integer(-1, 2, 4).value == 15

    def test_zero(self):
        assert madic.from_integer(0, 7, 3) == madic.zero(7, 3)

    def test_already_reduced(self):
        assert madic.from_integer(7, 10, 4).value == 7

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            madic.from_integer(0.5, 2, 6)

    def test_rejects_non_integer_fields(self):
        for args in ((2, 3, 0.5), (2.0, 3, 1), (2, 3.0, 1)):
            with pytest.raises(TypeError):
                MadicInt(*args)

    def test_rejects_unreduced_value(self):
        with pytest.raises(Exception):
            MadicInt(2, 3, 8)

    def test_json_round_trip(self):
        x = madic.from_integer(31, 2, 5)
        assert MadicInt.from_json(x.to_json()) == x
        assert x.to_json() == {"m": 2, "n": 5, "value": "31"}

    def test_json_rejects_non_integer_value(self):
        for value in (1.9, True):
            with pytest.raises(TypeError):
                MadicInt.from_json({"m": 2, "n": 3, "value": value})
        assert MadicInt.from_json({"m": 2, "n": 3, "value": 5}) == MadicInt(2, 3, 5)

    def test_json_rejects_bool_modulus_and_precision(self):
        for obj in ({"m": 2, "n": True, "value": 1}, {"m": True, "n": 3, "value": 0}):
            with pytest.raises(TypeError):
                MadicInt.from_json(obj)

    def test_str(self):
        assert str(madic.from_integer(31, 2, 5)) == "31 mod 2^5"


class TestTruncate:
    def test_worked_value(self):
        assert madic.truncate(MadicInt(2, 4, 13), 2).value == 1

    def test_identity(self):
        x = MadicInt(2, 4, 13)
        assert madic.truncate(x, 4) == x

    def test_too_deep(self):
        with pytest.raises(PrecisionExceeded):
            madic.truncate(MadicInt(2, 4, 13), 5)

    @given(elems(2, 6), st.integers(1, 6), st.integers(1, 6))
    def test_composition_law(self, x, j, l):
        j, l = min(j, l), max(j, l)
        assert madic.truncate(madic.truncate(x, l), j) == madic.truncate(x, j)


class TestArithmetic:
    def test_add_worked(self):
        assert (madic.from_integer(7, 10, 4) + madic.from_integer(8, 10, 4)).value == 15

    def test_mul_worked(self):
        assert (madic.from_integer(3, 2, 5) * madic.from_integer(11, 2, 5)).value == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            madic.add(madic.one(2, 3), madic.one(3, 3))

    def test_mixed_precision_takes_min(self):
        out = madic.mul(MadicInt(2, 5, 7), MadicInt(2, 3, 7))
        assert out.n == 3 and out.value == 49 % 8

    @given(elems(3, 4), elems(3, 4), elems(3, 4))
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == madic.zero(3, 4)

    @given(elems(10, 3), elems(10, 3), st.integers(1, 3))
    def test_truncation_is_ring_hom(self, a, b, j):
        assert madic.truncate(a * b, j) == madic.truncate(a, j) * madic.truncate(b, j)
        assert madic.truncate(a + b, j) == madic.truncate(a, j) + madic.truncate(b, j)


class TestValuation:
    def test_worked_values(self):
        assert str(madic.valuation(MadicInt(2, 5, 12))) == "Exact(2)"
        assert str(madic.valuation(MadicInt(3, 4, 0))) == "AtLeast(4)"
        assert str(madic.valuation(MadicInt(2, 3, 7))) == "Exact(0)"

    @given(elems(2, 6), elems(2, 6))
    def test_product_valuation_lower_bound(self, x, y):
        # product lands in both ideals, so valuation >= max of the bounds
        vx, vy, vxy = madic.valuation(x), madic.valuation(y), madic.valuation(x * y)
        assert vxy.bound >= min(max(vx.bound, vy.bound), 6)

    def test_prime_valuation_additivity_brute(self):
        for m in (2, 3):
            n = 5
            for a in range(1, m ** n):
                for b in range(1, m ** n):
                    va = madic.valuation(MadicInt(m, n, a))
                    vb = madic.valuation(MadicInt(m, n, b))
                    if va.bound + vb.bound < n:
                        vab = madic.valuation(madic.from_integer(a * b, m, n))
                        assert vab == madic.ValuationResult.exact(va.bound + vb.bound)


class TestInversion:
    def test_invert_unit_worked(self):
        assert madic.invert_unit(MadicInt(5, 3, 2)).value == 63

    def test_invert_one(self):
        assert madic.invert_unit(madic.one(7, 2)) == madic.one(7, 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            madic.invert_unit(MadicInt(2, 4, 6))

    def test_geom_inverse_worked_31(self):
        s = madic.geom_inverse_one_minus(madic.from_integer(2, 2, 5))
        assert s.value == 31
        assert (madic.one(2, 5) - madic.from_integer(2, 2, 5)) * s == madic.one(2, 5)

    def test_geom_inverse_worked_13(self):
        s = madic.geom_inverse_one_minus(madic.from_integer(3, 3, 3))
        assert s.value == 13

    def test_geom_inverse_of_zero(self):
        assert madic.geom_inverse_one_minus(madic.zero(2, 5)) == madic.one(2, 5)

    def test_geom_inverse_rejects_units_in_x(self):
        with pytest.raises(NotTopologicallyNilpotent):
            madic.geom_inverse_one_minus(MadicInt(2, 4, 3))

    @given(st.sampled_from([(2, 6), (3, 4), (10, 3)]), st.data())
    def test_geom_inverse_agrees_with_unit_inverse(self, mn, data):
        m, n = mn
        x = madic.scale(m, madic.from_integer(data.draw(st.integers(0, m ** n)), m, n))
        one = madic.one(m, n)
        s = madic.geom_inverse_one_minus(x)
        assert (one - x) * s == one
        assert s == madic.invert_unit(one - x)


class TestFromResidues:
    def test_coherent_worked(self):
        x = madic.from_residues(2, [(1, 1), (2, 3), (3, 3)])
        assert (x.n, x.value) == (3, 3)

    def test_incoherent(self):
        with pytest.raises(IncoherentSequence) as err:
            madic.from_residues(2, [(1, 0), (2, 1)])
        assert (err.value.low_level, err.value.high_level) == (1, 2)

    def test_rejects_non_integer_pairs(self):
        for pairs in ([(1, 1.7), (2.9, 3)], [(1, 1), (2, 3.0)], [(True, 1)]):
            with pytest.raises(TypeError):
                madic.from_residues(2, pairs)
        assert madic.from_residues(2, [(1, "1"), ("2", "3")]) == MadicInt(2, 2, 3)

    def test_single_residue(self):
        assert madic.from_residues(5, [(2, 24)]) == MadicInt(5, 2, 24)

    @given(st.integers(-10**6, 10**6))
    def test_embedding_coherence(self, a):
        m, n = 3, 5
        pairs = [(j, a % m ** j) for j in range(1, n + 1)]
        assert madic.from_residues(m, pairs) == madic.from_integer(a, m, n)
