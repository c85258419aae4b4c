import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from madic_heisenberg import madic
from madic_heisenberg.errors import (
    ContextMismatch,
    DomainError,
    LevelTooShallow,
    PrecisionExceeded,
)
from madic_heisenberg.heisenberg import (
    ChainFamily,
    HeisenbergContext,
    HPoint,
    NormalityReport,
    WeakNormalityReport,
)
from madic_heisenberg.hmodule import BilinearForm, ModuleVec, bilinear_eval, module_valuation
from madic_heisenberg.madic import MadicInt

H, G = ChainFamily.H, ChainFamily.G

UPPER2 = BilinearForm.from_rows([[0, 1], [0, 0]])
ALT2 = BilinearForm.from_rows([[0, 1], [-1, 0]])
SCALAR = BilinearForm.from_rows([[1]])


def ctx_of(m=2, rank=1, form=SCALAR, n=6):
    return HeisenbergContext(m=m, rank=rank, form=form, precision=n)


def points(ctx):
    top = ctx.m ** ctx.precision
    coord = st.integers(0, top - 1)
    return st.tuples(st.tuples(*[coord] * ctx.rank), coord).map(
        lambda p: ctx.point(*p))


class TestGroupLaw:
    def test_noncommutativity_worked(self):
        ctx = ctx_of(m=3, rank=2, form=UPPER2, n=2)
        g = ctx.point((1, 0), 0)
        h = ctx.point((0, 1), 0)
        assert ctx.mul(g, h).values() == ((1, 1), 1)
        assert ctx.mul(h, g).values() == ((1, 1), 0)

    def test_identity(self):
        ctx = ctx_of()
        g = ctx.point((5,), 9)
        assert ctx.mul(g, ctx.identity()) == g == ctx.mul(ctx.identity(), g)

    @given(st.data())
    def test_associativity(self, data):
        ctx = ctx_of(m=2, rank=2, form=ALT2, n=6)
        g, h, k = (data.draw(points(ctx)) for _ in range(3))
        assert ctx.mul(ctx.mul(g, h), k) == ctx.mul(g, ctx.mul(h, k))

    def test_context_mismatch(self):
        a = ctx_of(m=2).point((1,), 0)
        with pytest.raises(ContextMismatch):
            ctx_of(m=3).mul(a, a)


class TestInverse:
    def test_worked_value(self):
        ctx = ctx_of(m=10, rank=1, form=SCALAR, n=2)
        assert ctx.inv(ctx.point((2,), 3)).values() == ((98,), 1)

    def test_identity(self):
        ctx = ctx_of()
        assert ctx.inv(ctx.identity()) == ctx.identity()

    @given(st.data())
    def test_alternating_form_negates(self, data):
        # B(x, x) = 0 so the inverse is plain negation
        ctx = ctx_of(m=3, rank=2, form=ALT2, n=4)
        g = data.draw(points(ctx))
        inv = ctx.inv(g)
        assert inv.x == -g.x and inv.s == -g.s

    @given(st.data())
    def test_two_sided_inverse(self, data):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        g = data.draw(points(ctx))
        assert ctx.mul(g, ctx.inv(g)) == ctx.identity()
        assert ctx.mul(ctx.inv(g), g) == ctx.identity()


class TestConjugation:
    def test_worked_value(self):
        ctx = ctx_of(m=3, rank=2, form=UPPER2, n=2)
        out = ctx.conjugate(ctx.point((1, 0), 0), ctx.point((0, 1), 0))
        assert out.values() == ((0, 1), 1)

    def test_by_identity(self):
        ctx = ctx_of()
        h = ctx.point((3,), 7)
        assert ctx.conjugate(ctx.identity(), h) == h

    @given(st.data())
    def test_central_elements_are_fixed(self, data):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=5)
        g = data.draw(points(ctx))
        h = ctx.point((0, 0), data.draw(st.integers(0, 31)))
        assert ctx.conjugate(g, h) == h


class TestDilations:
    def test_worked_value(self):
        ctx = ctx_of(m=10, rank=2, form=UPPER2, n=2)
        assert ctx.dilate(3, ctx.point((1, 2), 1)).values() == ((3, 6), 9)

    def test_unit_dilation(self):
        ctx = ctx_of()
        g = ctx.point((5,), 9)
        assert ctx.dilate(1, g) == g

    @given(st.data(), st.integers(-9, 9), st.integers(-9, 9))
    def test_composition(self, data, r, t):
        ctx = ctx_of(m=2, rank=2, form=ALT2, n=6)
        g = data.draw(points(ctx))
        assert ctx.dilate(r, ctx.dilate(t, g)) == ctx.dilate(r * t, g)

    @given(st.data(), st.integers(-9, 9))
    def test_homomorphism(self, data, r):
        ctx = ctx_of(m=3, rank=2, form=UPPER2, n=4)
        g, h = data.draw(points(ctx)), data.draw(points(ctx))
        assert ctx.dilate(r, ctx.mul(g, h)) == ctx.mul(ctx.dilate(r, g), ctx.dilate(r, h))


class TestChainMembership:
    def test_worked_values(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=5)
        assert ctx.chain_member(ctx.point((4,), 16), G, 2) is True
        assert ctx.chain_member(ctx.point((4,), 8), G, 2) is False
        assert ctx.chain_member(ctx.point((4,), 8), H, 2) is True

    def test_identity_in_all_levels(self):
        ctx = ctx_of(n=6)
        for j in range(4):
            assert ctx.chain_member(ctx.identity(), G, j) is True

    def test_inconclusive_past_precision(self):
        ctx = ctx_of(n=5)
        assert ctx.chain_member(ctx.identity(), G, 3) is None

    @given(st.data(), st.integers(1, 3), st.integers(0, 2))
    def test_sandwich_and_dilation(self, data, j, l):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        if 2 * (j + l) > ctx.precision:
            return
        raw = data.draw(points(ctx))
        g = HPoint(x=raw.x.scale(2 ** j),
                   s=ctx.point((0, 0), raw.s.value * 4 ** j).s)
        assert ctx.chain_member(g, G, j) is True
        assert ctx.chain_member(g, H, j) is True
        # H_{2j} sits inside G_j
        h2j = HPoint(x=raw.x.scale(2 ** (2 * j)),
                     s=ctx.point((0, 0), raw.s.value * 4 ** j).s)
        assert ctx.chain_member(h2j, G, j) is True
        # dilation by 2^l pushes G_j into G_{j+l}
        assert ctx.chain_member(ctx.dilate(2 ** l, g), G, j + l) is True


class TestGroupDistance:
    def test_self_distance(self):
        ctx = ctx_of(n=6)
        g = ctx.point((5,), 9)
        d = ctx.group_distance(g, g, H)
        assert d.radius == 0 and not d.exact

    def test_worked_value(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        d = ctx.group_distance(ctx.point((2,), 0), ctx.identity(), H)
        assert d.valuation == 1 and d.radius == Fraction(1, 2) and d.exact

    @given(st.data())
    def test_left_invariance(self, data):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        a, g, h = (data.draw(points(ctx)) for _ in range(3))
        for family in (H, G):
            assert ctx.group_distance(ctx.mul(a, g), ctx.mul(a, h), family) == \
                ctx.group_distance(g, h, family)

    @given(st.data())
    def test_right_invariance_family_h(self, data):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        a, g, h = (data.draw(points(ctx)) for _ in range(3))
        assert ctx.group_distance(ctx.mul(g, a), ctx.mul(h, a), H) == \
            ctx.group_distance(g, h, H)

    @given(st.data())
    def test_rho_symmetry_and_subadditivity(self, data):
        ctx = ctx_of(m=3, rank=1, form=SCALAR, n=4)
        e = ctx.identity()
        g, h = data.draw(points(ctx)), data.draw(points(ctx))
        assert ctx.group_distance(ctx.inv(g), e, H) == ctx.group_distance(g, e, H)
        assert ctx.group_distance(ctx.mul(g, h), e, H).radius <= \
            max(ctx.group_distance(g, e, H).radius, ctx.group_distance(h, e, H).radius)


class TestProjection:
    def test_identity_projects_to_identity(self):
        ctx = ctx_of(n=6)
        out = ctx.project(ctx.identity(), 2)
        assert out.values() == ((0,), 0)

    def test_kernel_is_level_subgroup(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        for xv in range(4):
            for sv in range(4):
                g = ctx.point((xv,), sv)
                trivial = ctx.project(g, 1).values() == ((0,), 0)
                assert trivial == ctx.chain_member(g, H, 1)

    def test_homomorphism_exhaustive_level1(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        low = ctx.at_precision(1)
        pts = [ctx.point((xv,), sv) for xv in range(8) for sv in range(8)]
        for g in pts:
            for h in pts:
                lhs = ctx.project(ctx.mul(g, h), 1)
                rhs = low.mul(ctx.project(g, 1), ctx.project(h, 1))
                assert lhs == rhs

    def test_out_of_range(self):
        ctx = ctx_of(n=4)
        with pytest.raises(PrecisionExceeded):
            ctx.project(ctx.identity(), 5)


class TestNormality:
    def test_family_h_normal(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        for j in (0, 1, 2):
            rep = ctx.check_normality(H, j, 4)
            assert rep.normal and rep.witness is None
            assert "G/H_4" in rep.certificate_scope

    def test_family_g_not_normal_with_witness(self):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        rep = ctx.check_normality(G, 1, 4)
        assert not rep.normal
        a, h = rep.witness
        # replay the escape: the conjugate leaves the quotient image of G_1
        conj = ctx.conjugate(a, h)
        assert ctx._member_mod(h, G, 1)
        assert not ctx._member_mod(conj, G, 1)

    def test_level_too_shallow(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        with pytest.raises(LevelTooShallow):
            ctx.check_normality(G, 3, 4)

    def test_report_json(self):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        obj = ctx.check_normality(G, 1, 4).to_json()
        assert obj["verdict"] == "NotNormal"
        assert obj["witness"] is not None
        assert "certificate_scope" in obj and "level" in obj

    def test_report_witness_uses_the_point_shape(self):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        assert ctx.check_normality(G, 1, 4).to_json()["witness"] == {
            "a": {"x": [0, 1], "s": 0, "m": 2, "n": 6},
            "h": {"x": [2, 0], "s": 0, "m": 2, "n": 6},
        }

    def test_negative_levels_rejected(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        for args in ((H, -1, 2), (G, 1, -1)):
            with pytest.raises(DomainError):
                ctx.check_normality(*args)


# Brute-force oracle: the exhaustive G/H_L scans that the closed forms in
# check_normality and check_weak_normality replaced, kept verbatim.

def _digits(rank, x_range, s_range):
    """Lexicographic walk over the digit keys (xs, s) with every vector
    digit in x_range and the central digit in s_range."""
    for xs in itertools.product(x_range, repeat=rank):
        for s in s_range:
            yield xs, s


def scan_normality(ctx, family, j, quotient_level):
    """Conjugate every subgroup representative by every quotient
    representative; the first escaping conjugate (in canonical order)
    is the witness."""
    ctx._quotient_guard(family, quotient_level, j)
    scope = f"image in G/H_{quotient_level} only (finite-quotient certificate)"
    if j == 0:
        return NormalityReport(True, family, j, quotient_level, None, scope)
    ml, mcj = ctx.m ** quotient_level, ctx.m ** (family.central_exponent * j)
    subgroup = [ctx.point(xs, s) for xs, s in
                _digits(ctx.rank, range(0, ml, ctx.m ** j), range(0, ml, mcj))]
    for a in ctx._quotient_reps(quotient_level):
        for h in subgroup:
            if not ctx._member_mod(ctx.conjugate(a, h), family, j):
                return NormalityReport(False, family, j, quotient_level, (a, h), scope)
    return NormalityReport(True, family, j, quotient_level, None, scope)


def scan_weak_normality(ctx, family, a, j, depth, quotient_level):
    """Search l <= depth with family_l contained in a <> family_j <> a^-1,
    verified on finite-quotient representatives."""
    ctx._check(a)
    ctx._quotient_guard(family, quotient_level, j, depth)
    a_inv = ctx.inv(a)
    ml, c = ctx.m ** quotient_level, family.central_exponent
    for l in range(depth + 1):
        ok = all(
            ctx._member_mod(ctx.mul(ctx.mul(a_inv, ctx.point(xs, s)), a), family, j)
            for xs, s in _digits(ctx.rank, range(0, ml, ctx.m ** l),
                                 range(0, ml, ctx.m ** (c * l)))
        )
        if ok:
            return WeakNormalityReport(True, l, family, j, depth, quotient_level)
    return WeakNormalityReport(False, None, family, j, depth, quotient_level)


# Most conjugations one oracle call may need (about 0.1 ms each), so the
# grids below stay small enough to scan.
ORACLE_BUDGET = 3000


def _scan_size(m, rank, c, l, level):
    """Representatives of the level-l subgroup inside G/H_level."""
    return m ** (rank * (level - l)) * len(range(0, m ** level, m ** (c * l)))


def _normality_cases(m, rank, n):
    return [(family, j, level)
            for level in range(n + 1) for family in (H, G)
            for j in range(level // family.central_exponent + 1)
            if j == 0 or m ** (level * (rank + 1)) * _scan_size(
                m, rank, family.central_exponent, j, level) <= ORACLE_BUDGET]


def _weak_cases(m, rank, n):
    # a level l < j fails by the second representative (0, m^(c*l)), so
    # only the levels from j on can cost a full scan
    return [(family, j, depth, level)
            for level in range(n + 1) for family in (H, G)
            for j in range(level // family.central_exponent + 1)
            for depth in range(level // family.central_exponent + 1)
            if sum(_scan_size(m, rank, family.central_exponent, l, level)
                   for l in range(j, depth + 1)) <= ORACLE_BUDGET]


def _adic(m):
    """Integers of varied m-adic valuation."""
    return st.builds(lambda u, k: u * m ** k, st.integers(-9, 9), st.integers(0, 2))


@st.composite
def small_groups(draw):
    m = draw(st.sampled_from([2, 3, 4, 6]))
    rank = draw(st.sampled_from([1, 2]))
    rows = [[draw(_adic(m)) for _ in range(rank)] for _ in range(rank)]
    n = draw(st.integers(1, 6))
    return HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(rows), precision=n)


class TestClosedFormsAgainstOracle:
    @given(st.data())
    def test_normality_matches_scan(self, data):
        ctx = data.draw(small_groups())
        family, j, level = data.draw(st.sampled_from(
            _normality_cases(ctx.m, ctx.rank, ctx.precision)))
        assert ctx.check_normality(family, j, level) == scan_normality(ctx, family, j, level)

    # most drawn cases are decided by j alone (family H, or x^T A = 0); more
    # examples reach the ones where the valuation of x^T A sets the level
    @settings(max_examples=300)
    @given(st.data())
    def test_weak_normality_matches_scan(self, data):
        ctx = data.draw(small_groups())
        family, j, depth, level = data.draw(st.sampled_from(
            _weak_cases(ctx.m, ctx.rank, ctx.precision)))
        a = ctx.point([data.draw(_adic(ctx.m)) for _ in range(ctx.rank)],
                      data.draw(st.integers(0, ctx.m ** ctx.precision - 1)))
        assert ctx.check_weak_normality(family, a, j, depth, level) == \
            scan_weak_normality(ctx, family, a, j, depth, level)

    def test_readme_example_matches_scan(self):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        assert ctx.check_normality(G, 1, 4) == scan_normality(ctx, G, 1, 4)

    def test_depth_beyond_any_scan(self):
        # G/H_60 has 2^180 elements; no scan reaches it
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=128)
        rep = ctx.check_normality(G, 30, 60)
        assert not rep.normal
        assert [g.values() for g in rep.witness] == [((0, 1), 0), ((2 ** 30, 0), 0)]
        assert ctx.check_normality(H, 30, 60).normal
        deep = ctx_of(m=2, rank=2, form=BilinearForm.from_rows([[0, 2 ** 40], [0, 0]]), n=128)
        assert deep.check_normality(G, 30, 60).normal
        # x^T A = (-2^15, 0): the least l is 2j - 15
        a = ctx.point((0, 2 ** 15), 7)
        assert ctx.check_weak_normality(G, a, 20, 30, 60).level == 25
        assert not ctx.check_weak_normality(G, a, 20, 24, 60).found


class TestWeakNormality:
    def test_identity_conjugator(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        rep = ctx.check_weak_normality(G, ctx.identity(), 1, 2, 4)
        assert rep.found and rep.level <= 1

    def test_family_h_immediate(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        rep = ctx.check_weak_normality(H, ctx.point((3,), 5), 2, 2, 4)
        assert rep.found and rep.level <= 2

    def test_family_g_bound_two_j(self):
        ctx = ctx_of(m=2, rank=2, form=UPPER2, n=6)
        for xv in range(4):
            for yv in range(4):
                for sv in range(4):
                    a = ctx.point((xv, yv), sv)
                    rep = ctx.check_weak_normality(G, a, 1, 2, 4)
                    assert rep.found and rep.level <= 2

    def test_negative_levels_rejected(self):
        ctx = ctx_of(m=2, rank=1, form=SCALAR, n=6)
        e = ctx.identity()
        for j, depth, level in ((1, -1, 4), (-1, 1, 4), (1, 1, -1)):
            with pytest.raises(DomainError):
                ctx.check_weak_normality(G, e, j, depth, level)


class TestCosetDigits:
    @pytest.mark.parametrize("m, rank, form, n", [(2, 1, SCALAR, 4), (3, 2, UPPER2, 2),
                                                  (2, 2, ALT2, 4)])
    def test_keys_are_their_own_coset_keys(self, m, rank, form, n):
        ctx = ctx_of(m=m, rank=rank, form=form, n=n)
        for family in (H, G):
            for level in range(n // family.central_exponent + 1):
                keys = list(ctx.coset_digits(family, level))
                assert keys == sorted(keys)
                assert len(keys) == m ** (level * (rank + family.central_exponent))
                for k in keys:
                    assert ctx.coset_key(ctx.point(*k), family, level) == k

    def test_quotient_reps_walk_the_family_h_digits(self):
        ctx = ctx_of(m=3, rank=2, form=UPPER2, n=2)
        assert [g.values() for g in ctx._quotient_reps(1)] == list(ctx.coset_digits(H, 1))

    def test_level_guard(self):
        ctx = ctx_of(n=4)
        with pytest.raises(PrecisionExceeded):
            ctx.coset_digits(G, 3)
        for call in (lambda: ctx.coset_digits(H, -1),
                     lambda: ctx.coset_key(ctx.identity(), H, -1)):
            with pytest.raises(DomainError, match="nonnegative"):
                call()


class TestIntegerInput:
    @pytest.mark.parametrize("call", [
        lambda ctx, g: ctx.coset_key(g, H, 1.0),
        lambda ctx, g: ctx.coset_digits(G, 1.0),
        lambda ctx, g: ctx.coset_rows(H, 2.0),
        lambda ctx, g: ctx.chain_member(g, H, 1.5),
        lambda ctx, g: ctx.check_normality(H, 1.0, 2),
        lambda ctx, g: ctx.check_normality(G, 1, 2.0),
        lambda ctx, g: ctx.check_weak_normality(G, g, 1, 1.0, 4),
    ])
    def test_levels_reject_non_integers(self, call):
        ctx = ctx_of(n=6)
        with pytest.raises(TypeError):
            call(ctx, ctx.point((5,), 9))

    def test_point_json_shape(self):
        ctx = ctx_of(m=10, rank=2, form=UPPER2, n=2)
        assert ctx.point((3, 105), -1).to_json() == {"x": [3, 5], "s": 99, "m": 10, "n": 2}

    def test_context_rejects_non_integers(self):
        for kwargs in ({"m": 2.0}, {"rank": 1.0}, {"n": 6.5}):
            with pytest.raises(TypeError):
                ctx_of(**kwargs)

    def test_point_rejects_non_integer_coordinates(self):
        ctx = ctx_of()
        for xs, s in (((0.5,), 0), ((1,), 0.5)):
            with pytest.raises(TypeError):
                ctx.point(xs, s)


SELF_CHECKS_UNDER_O = """
import sys
from fractions import Fraction
from madic_heisenberg import haar
from madic_heisenberg.heisenberg import ChainFamily, HeisenbergContext
from madic_heisenberg.hmodule import BilinearForm

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
ctx = HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]), precision=4)
HeisenbergContext.inv = lambda self, g: g
try:
    ctx.conjugate(ctx.point((1,), 0), ctx.point((1,), 1))
except AssertionError:
    print("conjugate raised")
haar.average_over = lambda ctx, f, points: Fraction(2)
try:
    haar.integrate(ctx, haar.CylinderFunction.constant(ctx, ChainFamily.G, 1, 1), 2)
except AssertionError:
    print("integrate raised")
"""


class TestSelfChecks:
    def test_runtime_checks_survive_python_O(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-O", "-c", SELF_CHECKS_UNDER_O],
                             capture_output=True, env=env, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["conjugate raised", "integrate raised"]


# Object-layer oracle: the group law as it was computed before points became
# reduced int tuples, from ModuleVec addition, bilinear_eval and MadicInt
# reduction.  The flat law must agree with it exactly.

def old_eval_ints(form, xs, ys):
    return sum(form.b[p][q] * xs[p] * ys[q]
               for p in range(form.rank) for q in range(form.rank))


def old_mul(ctx, g, h):
    return HPoint(x=g.x + h.x, s=g.s + h.s + bilinear_eval(ctx.form, g.x, h.x))


def old_inv(ctx, g):
    return HPoint(x=-g.x, s=-g.s + bilinear_eval(ctx.form, g.x, g.x))


def old_conjugate(ctx, g, h):
    return old_mul(ctx, old_mul(ctx, g, h), old_inv(ctx, g))


def old_dilate(r, g):
    return HPoint(x=g.x.scale(r), s=madic.scale(r * r, g.s))


def old_coset_key(ctx, g, family, level):
    x0 = ModuleVec.from_integers([v % ctx.m ** level for v in g.x.values()], ctx.m, ctx.precision)
    s0 = g.s + bilinear_eval(ctx.form, x0, x0 - g.x)
    return x0.values(), s0.value % ctx.m ** (family.central_exponent * level)


def old_project(g, j):
    return HPoint(x=g.x.truncate(j), s=madic.truncate(g.s, j))


def old_group_distance(ctx, g, h, family):
    d = old_mul(ctx, old_inv(ctx, h), g)
    c, cap = family.central_exponent, ctx.precision // family.central_exponent
    depth = min(cap, module_valuation(d.x).bound, madic.valuation(d.s).bound // c)
    if depth < cap:
        return depth, ctx.profile.radius(depth), True
    trivial = d == ctx.identity()
    return cap, Fraction(0) if trivial else ctx.profile.radius(cap), False


@st.composite
def flat_groups(draw):
    m = draw(st.sampled_from([2, 3, 4, 6, 10]))
    rank = draw(st.integers(1, 4))
    rows = [[draw(_adic(m)) for _ in range(rank)] for _ in range(rank)]
    n = draw(st.integers(1, 8))
    return HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(rows), precision=n)


# residues of about 128 bits
WIDE = HeisenbergContext(m=2, rank=3, form=BilinearForm.from_rows(
    [[3, -1, 0], [5, 0, 2 ** 70], [-7, 1, 1]]), precision=128)
groups_under_test = st.one_of(flat_groups(), st.just(WIDE))


class TestFlatLawAgainstObjectOracle:
    @settings(max_examples=300)
    @given(st.data())
    def test_group_law(self, data):
        ctx = data.draw(groups_under_test)
        g, h = data.draw(points(ctx)), data.draw(points(ctx))
        r = data.draw(st.integers(-20, 20))
        assert ctx.form.eval_ints(g.xs, h.xs) == old_eval_ints(ctx.form, g.xs, h.xs)
        assert ctx.mul(g, h) == old_mul(ctx, g, h)
        assert ctx.inv(g) == old_inv(ctx, g)
        assert ctx.conjugate(g, h) == old_conjugate(ctx, g, h)
        assert ctx.dilate(r, g) == old_dilate(r, g)

    @settings(max_examples=300)
    @given(st.data())
    def test_quotients_and_distance(self, data):
        ctx = data.draw(groups_under_test)
        family = data.draw(st.sampled_from([H, G]))
        c = family.central_exponent
        g = data.draw(points(ctx))
        level = data.draw(st.integers(0, ctx.precision // c))
        assert ctx.coset_key(g, family, level) == old_coset_key(ctx, g, family, level)
        j = data.draw(st.integers(1, ctx.precision))
        assert ctx.project(g, j) == old_project(g, j)
        # h = g <> k with k deep in the chain, so every valuation is reached
        depth = data.draw(st.integers(0, ctx.precision // c))
        k = ctx.point([ctx.m ** depth * data.draw(st.integers(0, 9)) for _ in range(ctx.rank)],
                      ctx.m ** (c * depth) * data.draw(st.integers(0, 9)))
        h = ctx.mul(g, k)
        d = ctx.group_distance(g, h, family)
        assert (d.valuation, d.radius, d.exact) == old_group_distance(ctx, g, h, family)


class TestPointViews:
    @given(st.data())
    def test_round_trip(self, data):
        ctx = data.draw(groups_under_test)
        g = data.draw(points(ctx))
        m, n = ctx.m, ctx.precision
        again = HPoint(x=g.x, s=g.s)
        assert again == g and hash(again) == hash(g) == hash((g.xs, g.z, m, n))
        assert g == (g.xs, g.z, m, n)
        assert g.x.values() == g.xs and g.s == MadicInt(m, n, g.z)
        assert (g.x.m, g.x.n, g.x.rank) == (m, n, ctx.rank)
        assert g.values() == (g.xs, g.z)
        assert g.to_json() == {"x": list(g.xs), "s": g.z, "m": m, "n": n}
        assert ctx.point(g.to_json()["x"], g.to_json()["s"]) == g
        assert pickle.loads(pickle.dumps(g)) == g

    def test_equality_sees_modulus_and_precision(self):
        assert ctx_of(m=2, n=6).point((1,), 1) != ctx_of(m=2, n=5).point((1,), 1)
        assert ctx_of(m=2, n=6).point((1,), 1) != ctx_of(m=3, n=6).point((1,), 1)

    def test_immutable(self):
        g = ctx_of().point((5,), 9)
        for name, value in (("xs", (1,)), ("z", 0), ("x", g.x), ("s", g.s), ("m", 3), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert g.values() == ((5,), 9)

    def test_views_must_agree(self):
        x = ModuleVec.from_integers((1, 2), 2, 6)
        for s in (MadicInt(2, 5, 1), MadicInt(3, 6, 1)):
            with pytest.raises(ContextMismatch):
                HPoint(x=x, s=s)


class TestContextChecks:
    HOME = ctx_of(m=2, rank=2, form=UPPER2, n=6)
    FOREIGN = [ctx_of(m=2, rank=2, form=UPPER2, n=5).point((1, 0), 1),
               ctx_of(m=3, rank=2, form=UPPER2, n=6).point((1, 0), 1),
               ctx_of(m=2, rank=1, form=SCALAR, n=6).point((1,), 1)]

    @pytest.mark.parametrize("a", FOREIGN)
    def test_weak_normality_rejects_foreign_points(self, a):
        with pytest.raises(ContextMismatch):
            self.HOME.check_weak_normality(G, a, 1, 2, 4)

    @pytest.mark.parametrize("g", FOREIGN)
    def test_group_law_rejects_foreign_points(self, g):
        e = self.HOME.identity()
        for call in (lambda: self.HOME.mul(e, g), lambda: self.HOME.mul(g, e),
                     lambda: self.HOME.inv(g), lambda: self.HOME.conjugate(e, g),
                     lambda: self.HOME.dilate(2, g), lambda: self.HOME.project(g, 1),
                     lambda: self.HOME.coset_key(g, H, 1),
                     lambda: self.HOME.chain_member(g, H, 1),
                     lambda: self.HOME.group_distance(e, g)):
            with pytest.raises(ContextMismatch):
                call()

    def test_non_integer_input(self):
        ctx = ctx_of()
        g = ctx.point((3,), 5)
        for call in (lambda: ctx.point((1.5,), 0), lambda: ctx.dilate(2.5, g),
                     lambda: ctx.project(g, 2.5)):
            with pytest.raises(TypeError):
                call()
