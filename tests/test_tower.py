import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from madic_heisenberg import tower
from madic_heisenberg.errors import InvalidChain, InvalidProfile, LengthMismatch
from madic_heisenberg.tower import (
    ChainSpec,
    RadiusProfile,
    check_chain_equivalence,
    distance,
    product_disagreement,
    valuation,
)

GEO = RadiusProfile.geometric(Fraction(1, 2))


class TestValuation:
    def test_worked_value(self):
        # 12 = 4 * 3
        assert valuation(12, ChainSpec.ideal_power(2)) == 2

    def test_zero_is_infinite(self):
        assert valuation(0, ChainSpec.ideal_power(5)) == math.inf

    def test_coprime(self):
        assert valuation(5, ChainSpec.ideal_power(3)) == 0

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
           st.sampled_from([2, 3, 10]))
    def test_sum_valuation_bound(self, x, y, m):
        chain = ChainSpec.ideal_power(m)
        vx, vy = valuation(x, chain), valuation(y, chain)
        assert valuation(x + y, chain) >= min(vx, vy)
        assert valuation(-x, chain) == vx


class TestDistance:
    def test_worked_value(self):
        d = distance(5, 13, ChainSpec.ideal_power(2), GEO)
        assert (d.valuation, d.radius) == (3, Fraction(1, 8))

    def test_self_distance(self):
        d = distance(7, 7, ChainSpec.ideal_power(2), GEO)
        assert d.valuation == math.inf and d.radius == 0

    def test_unit_difference(self):
        d = distance(0, 1, ChainSpec.ideal_power(2), GEO)
        assert (d.valuation, d.radius) == (0, Fraction(1))

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6))
    def test_ultrametric_inequality(self, x, y, z):
        chain = ChainSpec.ideal_power(3)
        dxz = distance(x, z, chain, GEO).radius
        dxy = distance(x, y, chain, GEO).radius
        dyz = distance(y, z, chain, GEO).radius
        assert dxz <= max(dxy, dyz)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6))
    def test_translation_invariance(self, x, y, z):
        chain = ChainSpec.ideal_power(2)
        assert distance(x - z, y - z, chain, GEO) == distance(x, y, chain, GEO)


class TestProfiles:
    def test_geometric_values(self):
        assert GEO.radius(0) == 1 and GEO.radius(4) == Fraction(1, 16)

    def test_explicit_tail_continues_geometrically(self):
        p = RadiusProfile.explicit([Fraction(1), Fraction(1, 3)])
        assert p.radius(3) == Fraction(1, 27)

    def test_radius_index_must_be_an_integer(self):
        for j in (2.5, 2.0):
            with pytest.raises(TypeError):
                tower.DEFAULT_PROFILE.radius(j)
        assert tower.DEFAULT_PROFILE.radius(math.inf) == 0

    def test_explicit_rejects_increase(self):
        with pytest.raises(InvalidProfile):
            RadiusProfile.explicit([Fraction(1, 2), Fraction(1)])

    def test_explicit_rejects_constant_tail(self):
        with pytest.raises(InvalidProfile):
            RadiusProfile.explicit([Fraction(1), Fraction(1, 2), Fraction(1, 2)])

    def test_json_round_trip(self):
        for p in (GEO, RadiusProfile.explicit([Fraction(2), Fraction(1, 5)])):
            assert RadiusProfile.from_json(p.to_json()) == p


class TestChains:
    def test_explicit_generators_continue_by_last_ratio(self):
        c = ChainSpec.explicit([1, 2, 6])
        assert [c.generator(j) for j in range(5)] == [1, 2, 6, 18, 54]

    def test_explicit_requires_divisibility(self):
        with pytest.raises(InvalidChain):
            ChainSpec.explicit([1, 2, 5])

    def test_nonstrict_prefix_allowed(self):
        c = ChainSpec.explicit([1, 2, 2, 4])
        assert c.generator(2) == 2

    def test_rejects_non_integers(self):
        for bad in ({"kind": "ideal_power", "m": 2.5},
                    {"kind": "explicit", "generators": [1, 2.5, 5]},
                    {"kind": "explicit", "generators": [1, 3.9, 9]}):
            with pytest.raises(TypeError):
                ChainSpec.from_json(bad)

    def test_json_round_trip(self):
        for c in (ChainSpec.ideal_power(10), ChainSpec.explicit([1, 3, 9])):
            assert ChainSpec.from_json(c.to_json()) == c

    def test_space_json(self):
        chain, profile = tower.space_from_json(
            {"chain": {"kind": "ideal_power", "m": 2},
             "profile": {"kind": "geometric", "base": "1/2"}})
        assert chain == ChainSpec.ideal_power(2) and profile == GEO


class TestProductDisagreement:
    CHAIN = ChainSpec.ideal_power(2)

    def test_worked_value(self):
        assert product_disagreement((1, 3, 5), (1, 3, 7), self.CHAIN) == 2

    def test_equal_lists(self):
        assert product_disagreement((1, 3), (1, 3), self.CHAIN) == math.inf

    def test_first_entry_differs(self):
        assert product_disagreement((0, 0, 0), (1, 1, 1), self.CHAIN) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            product_disagreement((1,), (1, 3), self.CHAIN)

    @given(st.data())
    def test_ultrametric_on_lists(self, data):
        chain = self.CHAIN
        n = 4
        lists = [
            tuple(data.draw(st.integers(0, 2 ** (i + 1) - 1)) for i in range(n))
            for _ in range(3)
        ]
        a, b, c = lists
        jac = product_disagreement(a, c, chain)
        assert jac >= min(product_disagreement(a, b, chain),
                          product_disagreement(b, c, chain))


class TestChainEquivalence:
    def test_two_versus_four(self):
        rep = check_chain_equivalence(ChainSpec.ideal_power(2),
                                      ChainSpec.ideal_power(4), 6)
        assert rep.equivalent
        # 4^l Z inside 2^j Z iff 2l >= j; 2^n Z inside 4^k Z iff n >= 2k
        assert rep.forward == {j: -(-j // 2) for j in range(1, 7)}
        assert rep.backward == {k: 2 * k for k in range(1, 7)}

    def test_self_equivalence_identity_witness(self):
        rep = check_chain_equivalence(ChainSpec.ideal_power(2),
                                      ChainSpec.ideal_power(2), 3)
        assert rep.equivalent
        assert rep.forward == {1: 1, 2: 2, 3: 3} == rep.backward

    def test_two_versus_six_inconclusive(self):
        rep = check_chain_equivalence(ChainSpec.ideal_power(2),
                                      ChainSpec.ideal_power(6), 8)
        assert not rep.equivalent
        assert rep.failing_direction == "A_into_B"
        assert rep.depth == 8

    def test_report_json_shape(self):
        rep = check_chain_equivalence(ChainSpec.ideal_power(2),
                                      ChainSpec.ideal_power(6), 2)
        obj = rep.to_json()
        assert obj["verdict"] == "not_equivalent_up_to_depth"
        assert "failing_index" in obj
