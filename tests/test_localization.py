import itertools
import random
from fractions import Fraction as Rational

import pytest
from hypothesis import given, strategies as st

from madic_heisenberg import localization as loc
from madic_heisenberg.errors import ContextMismatch, NotInMultiplicativeSet, RankMismatch
from madic_heisenberg.hmodule import BilinearForm

Z = loc.BaseRing.integers()
Z6 = loc.BaseRing.integers_mod(6)
S2 = loc.MultSet.generated(Z, [2])
S23 = loc.MultSet.generated(Z, [2, 3])
S63 = loc.MultSet.generated(Z6, [3])


def frac(num, den, S=S2):
    return loc.Fraction(ring=S.ring, mult_set=S, num=num, den=den)


class TestMembership:
    def test_powers_of_two(self):
        assert S2.contains(8)
        assert not S2.contains(6)

    def test_empty_product(self):
        for S in (S2, S23, S63, loc.MultSet.one_plus_ideal(5)):
            assert S.contains(1)

    def test_one_plus_ideal(self):
        S = loc.MultSet.one_plus_ideal(5)
        assert S.contains(11) and S.contains(1) and not S.contains(7)

    def test_mixed_generators(self):
        assert S23.contains(12) and S23.contains(18)
        assert not S23.contains(5)

    def test_negative_generator_squares_away(self):
        S = loc.MultSet.generated(Z, [-2])
        assert S.contains(4) and S.contains(-2) and S.contains(-8)
        assert not S.contains(2)

    def test_zero_generator(self):
        S = loc.MultSet.generated(Z, [0])
        assert S.has_zero() and S.contains(0)

    def test_finite_closure(self):
        assert S63.closure() == frozenset({1, 3})

    def test_closure_cache_is_bounded(self):
        S63.closure()
        info = loc._finite_closure.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert S63.closure() is S63.closure()

    def test_closure_with_zero_divisors(self):
        S = loc.MultSet.generated(Z6, [2])
        assert S.closure() == frozenset({1, 2, 4})


class TestEquality:
    def test_cross_multiplication(self):
        assert loc.frac_equal(frac(1, 2), frac(2, 4))

    def test_reflexive(self):
        assert loc.frac_equal(frac(3, 8), frac(3, 8))

    def test_zero_divisor_case(self):
        # (2*1 - 0*1) * 3 = 6 = 0 in Z/6
        a = frac(2, 1, S63)
        b = frac(0, 1, S63)
        assert loc.frac_equal(a, b)

    def test_transitivity_exhaustive_z6(self):
        fracs = [frac(a, s, S63) for a in range(6) for s in (1, 3)]
        for x, y, z in itertools.product(fracs, repeat=3):
            if loc.frac_equal(x, y) and loc.frac_equal(y, z):
                assert loc.frac_equal(x, z)

    def test_denominator_validated(self):
        with pytest.raises(NotInMultiplicativeSet):
            frac(1, 6)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            loc.frac_equal(frac(1, 2), frac(1, 2, S23))

    def test_zero_in_s_collapses_ring(self):
        S = loc.MultSet.generated(Z6, [0])
        assert loc.frac_equal(frac(5, 1, S), frac(0, 1, S))


class TestArithmetic:
    def test_add_worked(self):
        out = loc.frac_add(frac(1, 2, S23), frac(1, 3, S23))
        assert (out.num, out.den) == (5, 6)

    def test_additive_identity(self):
        x = frac(7, 4)
        assert loc.frac_equal(loc.frac_add(x, frac(0, 1)), x)

    def test_unreduced_sum(self):
        out = loc.frac_add(frac(1, 2), frac(1, 2))
        assert (out.num, out.den) == (4, 4)
        assert loc.frac_equal(out, frac(1, 1))

    @given(st.integers(-30, 30), st.integers(0, 4),
           st.integers(-30, 30), st.integers(0, 4))
    def test_rational_oracle(self, a, i, b, j):
        x, y = frac(a, 2 ** i), frac(b, 2 ** j)
        assert loc.frac_to_rational(loc.frac_add(x, y)) == \
            Rational(a, 2 ** i) + Rational(b, 2 ** j)
        assert loc.frac_to_rational(loc.frac_mul(x, y)) == \
            Rational(a, 2 ** i) * Rational(b, 2 ** j)

    def test_well_definedness_z6(self):
        rng = random.Random(5)
        for _ in range(200):
            a = frac(rng.randrange(6), rng.choice((1, 3)), S63)
            a2 = frac((a.num * 3) % 6, (a.den * 3) % 6, S63)  # same class
            b = frac(rng.randrange(6), rng.choice((1, 3)), S63)
            if not loc.frac_equal(a, a2):
                continue
            assert loc.frac_equal(loc.frac_add(a, b), loc.frac_add(a2, b))
            assert loc.frac_equal(loc.frac_mul(a, b), loc.frac_mul(a2, b))

    @given(st.integers(-20, 20), st.integers(0, 3), st.integers(-20, 20),
           st.integers(0, 3), st.integers(-20, 20), st.integers(0, 3))
    def test_ring_axioms(self, a, i, b, j, c, k):
        x, y, z = frac(a, 2 ** i), frac(b, 2 ** j), frac(c, 2 ** k)
        assert loc.frac_equal(loc.frac_add(x, y), loc.frac_add(y, x))
        assert loc.frac_equal(loc.frac_mul(x, y), loc.frac_mul(y, x))
        assert loc.frac_equal(loc.frac_mul(x, loc.frac_add(y, z)),
                              loc.frac_add(loc.frac_mul(x, y), loc.frac_mul(x, z)))


class TestCanonicalHom:
    def test_image(self):
        out = loc.canonical_hom(5, S2)
        assert (out.num, out.den) == (5, 1)

    def test_injective_over_z(self):
        assert loc.kernel_witness(3, S2) is None

    def test_zero_has_trivial_witness(self):
        assert loc.kernel_witness(0, S2) == 1

    def test_zero_divisor_witness(self):
        assert loc.kernel_witness(2, S63) == 3

    def test_one_plus_ideal_injective(self):
        S = loc.MultSet.one_plus_ideal(4)
        for a in range(1, 40):
            assert loc.kernel_witness(a, S) is None


class TestModuleFractions:
    def test_coordinatewise_equality(self):
        a = loc.ModuleFraction(mult_set=S2, num=(1, 2), den=2)
        b = loc.ModuleFraction(mult_set=S2, num=(2, 4), den=4)
        assert loc.module_frac_equal(a, b)

    def test_reflexive(self):
        a = loc.ModuleFraction(mult_set=S2, num=(3, 5), den=8)
        assert loc.module_frac_equal(a, a)

    def test_distinct(self):
        a = loc.ModuleFraction(mult_set=S2, num=(1, 0), den=2)
        b = loc.ModuleFraction(mult_set=S2, num=(0, 1), den=2)
        assert not loc.module_frac_equal(a, b)

    def test_rank_mismatch(self):
        a = loc.ModuleFraction(mult_set=S2, num=(1,), den=1)
        b = loc.ModuleFraction(mult_set=S2, num=(1, 1), den=1)
        with pytest.raises(RankMismatch):
            loc.module_frac_equal(a, b)


class TestHeisenbergFractions:
    FORM = BilinearForm.from_rows([[0, 1], [0, 0]])

    def rand_point(self, rng):
        return ((rng.randrange(-9, 10), rng.randrange(-9, 10)),
                rng.randrange(-9, 10))

    def test_identity_maps_to_identity(self):
        out = loc.heis_frac_hom((0, 0), 0, S2)
        e = loc.heis_frac_hom((0, 0), 0, S2)
        assert loc.frac_hpoint_equal(out, e)

    def test_homomorphism(self):
        rng = random.Random(9)
        for _ in range(300):
            (xs, s), (ys, t) = self.rand_point(rng), self.rand_point(rng)
            prod = (tuple(p + q for p, q in zip(xs, ys)),
                    s + t + self.FORM.eval_ints(xs, ys))
            lhs = loc.heis_frac_hom(*prod, S2)
            rhs = loc.frac_heis_mul(self.FORM, loc.heis_frac_hom(xs, s, S2),
                                    loc.heis_frac_hom(ys, t, S2))
            assert loc.frac_hpoint_equal(lhs, rhs)

    def test_dilation_intertwining(self):
        rng = random.Random(15)
        for _ in range(300):
            (xs, s) = self.rand_point(rng)
            r = rng.randrange(-6, 7)
            dilated = (tuple(r * v for v in xs), r * r * s)
            lhs = loc.heis_frac_hom(*dilated, S2)
            rhs = loc.frac_heis_dilate(loc.canonical_hom(r, S2),
                                       loc.heis_frac_hom(xs, s, S2))
            assert loc.frac_hpoint_equal(lhs, rhs)

    def test_fraction_level_inverse(self):
        g = loc.FracHPoint(
            x=loc.ModuleFraction(mult_set=S2, num=(3, -1), den=2),
            s=frac(5, 4))
        e = loc.heis_frac_hom((0, 0), 0, S2)
        assert loc.frac_hpoint_equal(
            loc.frac_heis_mul(self.FORM, g, loc.frac_heis_inv(self.FORM, g)), e)

    def test_fraction_bilinear_denominators(self):
        x = loc.ModuleFraction(mult_set=S2, num=(1, 0), den=2)
        y = loc.ModuleFraction(mult_set=S2, num=(0, 1), den=4)
        out = loc.frac_bilinear(self.FORM, x, y)
        assert (out.num, out.den) == (1, 8)


class TestSerialization:
    def test_fraction_json(self):
        x = loc.Fraction(ring=Z, mult_set=S23, num=1, den=6)
        assert x.to_json() == {"ring": "Z",
                               "S": {"kind": "generated", "gens": [2, 3]},
                               "num": "1", "den": "6"}
        assert loc.frac_equal(loc.Fraction.from_json(x.to_json()), x)

    def test_non_integers_rejected(self):
        for gens in ([2.5], [True]):
            with pytest.raises(TypeError):
                loc.MultSet.from_json(Z, {"kind": "generated", "gens": gens})
        with pytest.raises(TypeError):
            loc.MultSet.from_json(Z, {"kind": "one_plus_ideal", "m": 2.5})
        good = loc.Fraction(ring=Z, mult_set=S23, num=1, den=6).to_json()
        for field, value in (("num", 1.9), ("den", 6.0), ("num", False)):
            with pytest.raises(TypeError):
                loc.Fraction.from_json({**good, field: value})
        with pytest.raises(TypeError):
            loc.ModuleFraction(mult_set=S23, num=(1, 0.5), den=2)

    def test_zmod_label_round_trip(self):
        x = loc.Fraction(ring=Z6, mult_set=S63, num=2, den=3)
        again = loc.Fraction.from_json(x.to_json())
        assert again.ring == Z6 and loc.frac_equal(again, x)
