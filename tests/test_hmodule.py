import pytest
from hypothesis import given, strategies as st

from madic_heisenberg import hmodule, madic
from madic_heisenberg.errors import ModulusMismatch, RankMismatch
from madic_heisenberg.hmodule import (
    BilinearForm,
    ModuleVec,
    apply_linear,
    bilinear_eval,
    module_valuation,
)


def vecs(rank, m, n):
    return st.lists(st.integers(0, m ** n - 1), min_size=rank, max_size=rank).map(
        lambda vs: ModuleVec.from_integers(vs, m, n))


UPPER = BilinearForm.from_rows([[0, 1], [0, 0]])


class TestBilinearEval:
    def test_asymmetry_worked(self):
        x = ModuleVec.from_integers((1, 0), 2, 4)
        y = ModuleVec.from_integers((0, 1), 2, 4)
        assert bilinear_eval(UPPER, x, y).value == 1
        assert bilinear_eval(UPPER, y, x).value == 0

    def test_zero_argument(self):
        x = ModuleVec.from_integers((3, 5), 2, 4)
        zero = ModuleVec.from_integers((0, 0), 2, 4)
        assert bilinear_eval(UPPER, x, zero) == madic.zero(2, 4)
        assert bilinear_eval(UPPER, zero, x) == madic.zero(2, 4)

    def test_scalar_product(self):
        b = BilinearForm.from_rows([[1]])
        x = ModuleVec.from_integers((2,), 10, 2)
        y = ModuleVec.from_integers((3,), 10, 2)
        assert bilinear_eval(b, x, y).value == 6

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            bilinear_eval(UPPER, ModuleVec.from_integers((1,), 2, 4),
                          ModuleVec.from_integers((1, 1), 2, 4))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            bilinear_eval(BilinearForm.from_rows([[1]]),
                          ModuleVec.from_integers((1,), 2, 4),
                          ModuleVec.from_integers((1,), 3, 4))

    @given(vecs(2, 3, 4), vecs(2, 3, 4), vecs(2, 3, 4))
    def test_biadditivity(self, x, w, y):
        assert bilinear_eval(UPPER, x + w, y) == \
            bilinear_eval(UPPER, x, y) + bilinear_eval(UPPER, w, y)
        assert bilinear_eval(UPPER, y, x + w) == \
            bilinear_eval(UPPER, y, x) + bilinear_eval(UPPER, y, w)

    @given(vecs(2, 2, 6), vecs(2, 2, 6), st.integers(-20, 20))
    def test_scalar_moves_across(self, x, y, r):
        rb = bilinear_eval(UPPER, x.scale(r), y)
        assert rb == bilinear_eval(UPPER, x, y.scale(r))
        assert rb == madic.scale(r, bilinear_eval(UPPER, x, y))

    @given(vecs(2, 2, 6), vecs(2, 2, 6), st.integers(0, 2), st.integers(0, 2))
    def test_chain_compatibility(self, x, y, j, l):
        # scaled into M_j and M_l, the value lands in the (j+l)-th ideal
        if j + l < 6:
            v = madic.valuation(bilinear_eval(UPPER, x.scale(2 ** j), y.scale(2 ** l)))
            assert v.bound >= j + l

    @given(vecs(2, 2, 5), vecs(2, 2, 5), st.integers(1, 5))
    def test_level_map_functoriality(self, x, y, j):
        assert madic.truncate(bilinear_eval(UPPER, x, y), j) == \
            bilinear_eval(UPPER, x.truncate(j), y.truncate(j))


class TestModuleValuation:
    def test_worked_min(self):
        v = module_valuation(ModuleVec.from_integers((4, 6), 2, 4))
        assert str(v) == "Exact(1)"

    def test_zero_vector(self):
        assert str(module_valuation(ModuleVec.from_integers((0, 0), 2, 4))) == "AtLeast(4)"

    def test_unit_coordinate(self):
        assert str(module_valuation(ModuleVec.from_integers((1, 8), 2, 4))) == "Exact(0)"

    @given(vecs(2, 2, 6), st.integers(-20, 20))
    def test_scaling_bound(self, x, r):
        vr = madic.valuation(madic.from_integer(r, 2, 6))
        vx = module_valuation(x)
        assert module_valuation(x.scale(r)).bound >= min(max(vr.bound, vx.bound), 6)


class TestApplyLinear:
    def test_identity(self):
        x = ModuleVec.from_integers((3, 5), 2, 4)
        assert apply_linear([[1, 0], [0, 1]], x) == x

    def test_sum_worked(self):
        out = apply_linear([[1, 1]], ModuleVec.from_integers((3, 5), 2, 3))
        assert out.values() == (0,)

    def test_column_mismatch(self):
        with pytest.raises(RankMismatch):
            apply_linear([[1, 1, 1]], ModuleVec.from_integers((3, 5), 2, 3))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            apply_linear([[1.5, 0]], ModuleVec.from_integers((3, 5), 2, 3))

    @given(vecs(2, 2, 5), st.integers(1, 5))
    def test_commutes_with_truncation(self, x, j):
        rows = [[2, -1], [3, 0], [1, 1]]
        assert apply_linear(rows, x).truncate(j) == apply_linear(rows, x.truncate(j))


class TestSerialization:
    def test_form_round_trip(self):
        assert BilinearForm.from_json(UPPER.to_json()) == UPPER
        assert UPPER.to_json() == {"N": 2, "b": [[0, 1], [0, 0]]}

    def test_form_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            BilinearForm.from_rows([[1.9]])

    def test_form_rejects_wrong_declared_rank(self):
        with pytest.raises(RankMismatch):
            BilinearForm.from_json({"N": 3, "b": [[1]]})

    def test_vector_round_trip(self):
        x = ModuleVec.from_integers((3, 5), 2, 4)
        assert ModuleVec.from_json(x.to_json()) == x
