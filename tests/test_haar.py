import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from madic_heisenberg import cli
from madic_heisenberg.errors import ContextMismatch, DomainError, PrecisionExceeded
from madic_heisenberg.haar import (
    CylinderFunction,
    average_over,
    enumerate_cosets,
    integrate,
    pushforward_table,
    quotient_size,
    translate,
)
from madic_heisenberg.heisenberg import ChainFamily, HeisenbergContext
from madic_heisenberg.hmodule import BilinearForm

H, G = ChainFamily.H, ChainFamily.G

CTX21 = HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]), precision=4)
CTX32 = HeisenbergContext(m=3, rank=2, form=BilinearForm.from_rows([[0, 1], [0, 0]]),
                          precision=3)


def random_table(ctx, family, level, rng):
    reps = enumerate_cosets(ctx, family, level).reps
    return CylinderFunction(level=level, family=family, table={
        ctx.coset_key(r, family, level): Fraction(rng.randrange(-9, 10),
                                                  rng.randrange(1, 9))
        for r in reps
    })


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_cosets(CTX21, G, 1).reps) == 8
        assert len(enumerate_cosets(CTX32, H, 1).reps) == 27
        assert len(enumerate_cosets(CTX21, G, 0).reps) == 1

    def test_counts_match_index_formula(self):
        assert quotient_size(CTX21, G, 1) == 8
        assert quotient_size(CTX32, H, 1) == 27

    def test_cosets_pairwise_distinct(self):
        reps = enumerate_cosets(CTX21, G, 1).reps
        keys = {CTX21.coset_key(r, G, 1) for r in reps}
        assert len(keys) == 8

    def test_lexicographic_order(self):
        reps = enumerate_cosets(CTX21, H, 1).reps
        assert [r.values() for r in reps] == [
            ((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1)]

    def test_precision_guard(self):
        with pytest.raises(PrecisionExceeded):
            enumerate_cosets(CTX21, G, 3)


class TestIntegrate:
    def test_total_mass(self):
        for ctx, fam in ((CTX21, G), (CTX32, H)):
            assert integrate(ctx, CylinderFunction.constant(ctx, fam, 1, 1)) == 1

    def test_indicator_mass(self):
        f = CylinderFunction.indicator(CTX21, G, 1, CTX21.identity())
        assert integrate(CTX21, f) == Fraction(1, 8)
        g = CylinderFunction.indicator(CTX32, H, 1, CTX32.point((1, 2), 0))
        assert integrate(CTX32, g) == Fraction(1, 27)

    def test_level_independence(self):
        rng = random.Random(7)
        f = random_table(CTX21, G, 1, rng)
        assert integrate(CTX21, f, 2) == integrate(CTX21, f, 1) == integrate(CTX21, f)
        g = random_table(CTX32, H, 1, rng)
        assert integrate(CTX32, g, 2) == integrate(CTX32, g)

    def test_linearity(self):
        rng = random.Random(11)
        f, g = random_table(CTX21, G, 1, rng), random_table(CTX21, G, 1, rng)
        assert integrate(CTX21, f + g) == integrate(CTX21, f) + integrate(CTX21, g)

    def test_positivity(self):
        rng = random.Random(13)
        f = random_table(CTX32, H, 1, rng)
        nonneg = CylinderFunction(level=1, family=H,
                                  table={k: abs(v) for k, v in f.table.items()})
        assert integrate(CTX32, nonneg) >= 0

    def test_incomplete_table_rejected(self):
        f = CylinderFunction(level=1, family=G, table={((0,), 0): Fraction(1)})
        with pytest.raises(DomainError):
            integrate(CTX21, f)

    def test_representative_independence(self):
        # perturb every canonical representative on the right by a fixed
        # element of the level subgroup; the average must not move
        rng = random.Random(17)
        for ctx, fam, perturb in (
            (CTX21, G, CTX21.point((2,), 4)),
            (CTX32, H, CTX32.point((3, 6), 3)),
        ):
            f = random_table(ctx, fam, 1, rng)
            reps = enumerate_cosets(ctx, fam, 1).reps
            moved = [ctx.mul(r, perturb) for r in reps]
            assert average_over(ctx, f, moved) == integrate(ctx, f)


class TestTranslate:
    def test_identity_translation(self):
        rng = random.Random(19)
        f = random_table(CTX21, G, 1, rng)
        e = CTX21.identity()
        assert translate(CTX21, f, e, "left").table == f.table
        right = translate(CTX21, f, e, "right")  # re-tabulated at level 2
        assert integrate(CTX21, right) == integrate(CTX21, f)

    def test_left_invariance_exhaustive(self):
        rng = random.Random(23)
        f = random_table(CTX21, G, 1, rng)
        base = integrate(CTX21, f)
        for a in enumerate_cosets(CTX21, G, 2).reps:
            assert integrate(CTX21, translate(CTX21, f, a, "left")) == base

    def test_right_invariance_family_h(self):
        rng = random.Random(29)
        f = random_table(CTX21, H, 1, rng)
        base = integrate(CTX21, f)
        for a in enumerate_cosets(CTX21, H, 2).reps:
            out = translate(CTX21, f, a, "right")
            assert out.level == 1
            assert integrate(CTX21, out) == base

    def test_right_invariance_family_g_lifts(self):
        rng = random.Random(31)
        f = random_table(CTX21, G, 1, rng)
        base = integrate(CTX21, f)
        for a in enumerate_cosets(CTX21, G, 1).reps:
            out = translate(CTX21, f, a, "right")
            assert out.level == 2
            assert integrate(CTX21, out) == base

    def test_bad_side(self):
        f = CylinderFunction.constant(CTX21, G, 1, 1)
        with pytest.raises(DomainError):
            translate(CTX21, f, CTX21.identity(), "up")

    def test_tables_match_pointwise_definition(self):
        # left: g -> f(a <> g), right: g -> f(g <> a), read off at the
        # canonical representative of every output coset
        rng = random.Random(43)
        for ctx, fam in ((CTX21, G), (CTX21, H), (CTX32, H)):
            f = random_table(ctx, fam, 1, rng)
            for a in (ctx.point((3,) * ctx.rank, 5), ctx.point((1,) + (0,) * (ctx.rank - 1), 7)):
                for side, compose in (("left", lambda g: ctx.mul(a, g)),
                                      ("right", lambda g: ctx.mul(g, a))):
                    out = translate(ctx, f, a, side)
                    assert out.table == {k: f.value_at(ctx, compose(ctx.point(*k)))
                                         for k in ctx.coset_digits(fam, out.level)}

    @pytest.mark.parametrize("a", [
        HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]),
                          precision=3).point((1,), 1),
        HeisenbergContext(m=3, rank=1, form=BilinearForm.from_rows([[1]]),
                          precision=4).point((1,), 1),
        CTX32.point((1, 0), 1),
    ])
    def test_foreign_points_rejected(self, a):
        f = CylinderFunction.constant(CTX21, G, 1, 1)
        for side in ("left", "right"):
            with pytest.raises(ContextMismatch):
                translate(CTX21, f, a, side)
        with pytest.raises(ContextMismatch):
            f.value_at(CTX21, a)


class TestPushforward:
    def test_integral_preserved(self):
        rng = random.Random(37)
        f = random_table(CTX21, G, 1, rng)
        lifted = pushforward_table(CTX21, f, 2)
        assert integrate(CTX21, lifted) == integrate(CTX21, f)
        assert len(lifted.table) == len(f.table) * 2 ** 3

    def test_constant_stays_constant(self):
        f = CylinderFunction.constant(CTX32, H, 1, Fraction(2, 5))
        lifted = pushforward_table(CTX32, f, 2)
        assert set(lifted.table.values()) == {Fraction(2, 5)}

    def test_table_matches_pointwise_definition(self):
        rng = random.Random(47)
        for ctx, fam in ((CTX21, G), (CTX32, H)):
            f = random_table(ctx, fam, 1, rng)
            lifted = pushforward_table(ctx, f, 2)
            assert lifted.table == {k: f.value_at(ctx, ctx.point(*k))
                                    for k in ctx.coset_digits(fam, 2)}

    def test_downward_rejected(self):
        f = CylinderFunction.constant(CTX32, H, 2, 1)
        with pytest.raises(DomainError):
            pushforward_table(CTX32, f, 1)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(41)
        f = random_table(CTX21, G, 1, rng)
        again = CylinderFunction.from_json(f.to_json())
        assert again.table == f.table
        assert (again.level, again.family) == (1, G)


class TestConstruction:
    def test_values_normalised_to_fraction(self):
        f = CylinderFunction(level=1, family=H, table={
            ((0,), 0): 3, ((0,), 1): "2/3", ((1,), 0): Fraction(1, 2), ((1,), 1): -1})
        assert f.table == {((0,), 0): 3, ((0,), 1): Fraction(2, 3),
                           ((1,), 0): Fraction(1, 2), ((1,), 1): -1}
        assert {type(v) for v in f.table.values()} == {Fraction}

    def test_caller_dict_is_copied(self):
        table = dict.fromkeys(CTX21.coset_digits(H, 1), Fraction(1, 4))
        f = CylinderFunction(level=1, family=H, table=table)
        table[((0,), 0)] = Fraction(7)
        table[((9,), 9)] = Fraction(7)
        assert f.table == dict.fromkeys(CTX21.coset_digits(H, 1), Fraction(1, 4))


class TestAverageOver:
    @pytest.mark.parametrize("a", [
        HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]),
                          precision=3).point((1,), 1),
        HeisenbergContext(m=3, rank=1, form=BilinearForm.from_rows([[1]]),
                          precision=4).point((1,), 1),
        CTX32.point((1, 0), 1),
    ])
    def test_foreign_points_rejected(self, a):
        f = CylinderFunction.constant(CTX21, G, 1, 1)
        with pytest.raises(ContextMismatch):
            average_over(CTX21, f, [CTX21.identity(), a])

    def test_empty_list(self):
        with pytest.raises(ZeroDivisionError):
            average_over(CTX21, CylinderFunction.constant(CTX21, G, 1, 1), [])


# Per-coset oracles: re-tabulation and averaging as they were computed
# before the row-wise fill, one law and key evaluation per output coset
# and one table lookup per point.

def oracle_retabulate(ctx, f, level, compose):
    key = ctx._keyer(f.family, f.level)
    return {k: f.table[key(compose(k))] for k in ctx.coset_digits(f.family, level)}


def oracle_average_over(ctx, f, points):
    return sum((f.value_at(ctx, g) for g in points), Fraction(0)) / len(points)


MAX_COSETS = 4096


@st.composite
def retabulations(draw):
    """A random group, a random cylinder function f on it, a translator a,
    and one re-tabulation of f (left or right translate, or a lift) whose
    output quotient has at most MAX_COSETS cosets."""
    m = draw(st.sampled_from([2, 3, 4]))
    rank = draw(st.integers(1, 3))
    family = draw(st.sampled_from([H, G]))
    c = family.central_exponent
    jobs = [(op, level, out) for level in range(3)
            for op, out in (("left", level), ("right", level * (1 if family is H else 2)),
                            ("lift", level + 1), ("lift", level + 2))
            if m ** (out * (rank + c)) <= MAX_COSETS]
    op, level, out = draw(st.sampled_from(jobs))
    rows = [[draw(st.integers(-9, 9)) for _ in range(rank)] for _ in range(rank)]
    ctx = HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(rows),
                            precision=max(1, c * out + draw(st.integers(0, 2))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = CylinderFunction(level=level, family=family, table={
        k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        for k in ctx.coset_digits(family, level)})
    coord = st.integers(0, ctx.M - 1)
    a = ctx.point(draw(st.tuples(*[coord] * rank)), draw(coord))
    return ctx, f, a, op, out


class TestRowWiseAgainstOracle:
    @settings(max_examples=150)
    @given(retabulations())
    def test_translates_and_lifts_match_per_coset_fill(self, case):
        ctx, f, a, op, out = case
        if op == "lift":
            got, compose = pushforward_table(ctx, f, out), (lambda k: k)
        else:
            got = translate(ctx, f, a, op)
            compose = ((lambda k: ctx._law(a, k)) if op == "left"
                       else (lambda k: ctx._law(k, a)))
        assert got.level == out
        assert list(got.table.items()) == list(
            oracle_retabulate(ctx, f, out, compose).items())
        vectors, width = ctx.coset_rows(f.family, out)
        assert list(ctx.coset_digits(f.family, out)) == [
            (xs, s) for xs in vectors for s in range(width)]

    @settings(max_examples=100)
    @given(retabulations(), st.data())
    def test_average_matches_pointwise_sum(self, case, data):
        ctx, f, a, _, _ = case
        c = f.family.central_exponent
        coord = st.integers(0, ctx.M - 1)
        base = [ctx.point(*data.draw(st.tuples(st.tuples(*[coord] * ctx.rank), coord)))
                for _ in range(data.draw(st.integers(1, 6)))]
        # right multiples by the level subgroup share their coset key
        same_coset = [ctx.mul(g, ctx.point([ctx.m ** f.level * v for v in x],
                                           ctx.m ** (c * f.level) * t))
                      for g in base for x, t in data.draw(st.lists(
                          st.tuples(st.tuples(*[coord] * ctx.rank), coord), max_size=2))]
        points = base + base[:data.draw(st.integers(0, len(base)))] + same_coset + [a]
        points = data.draw(st.permutations(points))
        assert average_over(ctx, f, points) == oracle_average_over(ctx, f, points)


# Row storage: the dict-building constructors as they were before rows,
# kept as oracles, and the one-period stabilisation check of integrate
# against the average over every level-n representative.

def oracle_constant(ctx, family, level, value):
    return dict.fromkeys(ctx.coset_digits(family, level), Fraction(value))


def oracle_indicator(ctx, family, level, of):
    target = ctx.coset_key(of, family, level)
    return {k: Fraction(int(k == target)) for k in ctx.coset_digits(family, level)}


@st.composite
def lifted_functions(draw):
    """A random group, a cylinder function f at level l built one of four
    ways (a table, constant, indicator, left translate of a table), and a
    deeper level n > l whose quotient has at most MAX_COSETS cosets."""
    m = draw(st.sampled_from([2, 3, 4]))
    rank = draw(st.integers(1, 3))
    family = draw(st.sampled_from([H, G]))
    c = family.central_exponent
    pairs = [(l, n) for n in range(1, 5) for l in range(n)
             if m ** (n * (rank + c)) <= MAX_COSETS]
    level, n = draw(st.sampled_from(pairs))
    rows = [[draw(st.integers(-9, 9)) for _ in range(rank)] for _ in range(rank)]
    ctx = HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(rows),
                            precision=c * n + draw(st.integers(0, 2)))
    coord = st.integers(0, ctx.M - 1)
    point = ctx.point(draw(st.tuples(*[coord] * rank)), draw(coord))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    table = {k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
             for k in ctx.coset_digits(family, level)}
    kind = draw(st.sampled_from(["table", "constant", "indicator", "translate"]))
    if kind == "constant":
        f = CylinderFunction.constant(ctx, family, level, Fraction(rng.randrange(1, 9), 7))
    elif kind == "indicator":
        f = CylinderFunction.indicator(ctx, family, level, point)
    else:
        f = CylinderFunction(level=level, family=family, table=table)
        if kind == "translate":
            f = translate(ctx, f, point, "left")
    return ctx, f, n, point


class TestRowStorage:
    @settings(max_examples=150)
    @given(lifted_functions())
    def test_one_period_check_matches_every_representative(self, case):
        ctx, f, n, _ = case
        full = average_over(ctx, f, enumerate_cosets(ctx, f.family, n).reps)
        assert integrate(ctx, f, n) == full == integrate(ctx, f)

    @settings(max_examples=100)
    @given(lifted_functions(), st.integers(-20, 20))
    def test_constant_and_indicator_match_dict_oracle(self, case, value):
        ctx, f, _, point = case
        for got, want in (
            (CylinderFunction.constant(ctx, f.family, f.level, value),
             oracle_constant(ctx, f.family, f.level, value)),
            (CylinderFunction.indicator(ctx, f.family, f.level, point),
             oracle_indicator(ctx, f.family, f.level, point)),
        ):
            assert list(got.table.items()) == list(want.items())
            assert got == CylinderFunction(level=f.level, family=f.family, table=want)

    def test_rows_are_lexicographic_whatever_the_table_order(self):
        table = oracle_indicator(CTX32, H, 1, CTX32.point((2, 1), 1))
        f = CylinderFunction(level=1, family=H, table=dict(reversed(table.items())))
        assert list(f.table) == list(CTX32.coset_digits(H, 1))
        assert list(f.rows) == list(CTX32.coset_rows(H, 1)[0])
        assert f == CylinderFunction.indicator(CTX32, H, 1, CTX32.point((2, 1), 1))

    def test_table_view(self):
        f = CylinderFunction.indicator(CTX21, G, 1, CTX21.point((1,), 2))
        want = oracle_indicator(CTX21, G, 1, CTX21.point((1,), 2))
        view = f.table
        assert len(view) == len(want) == 8
        assert view == want and want == view
        assert view != {**want, ((0,), 0): Fraction(5)}
        assert view != dict(list(want.items())[:-1])
        assert view[(1,), 2] == 1 and view[(1,), 3] == 0
        for key in (((2,), 0), ((0,), 4), ((0,), -1), ((0, 0), 0)):
            with pytest.raises(KeyError):
                view[key]
            assert key not in view
        assert view.get(((0,), 4)) is None
        with pytest.raises(TypeError):
            view[(0,), 0] = Fraction(1)

    def test_pickle_and_immutability(self):
        rng = random.Random(53)
        for f in (random_table(CTX32, H, 1, rng),
                  CylinderFunction.indicator(CTX21, G, 2, CTX21.point((3,), 9)),
                  translate(CTX21, random_table(CTX21, G, 1, rng), CTX21.point((1,), 1),
                            "right")):
            again = pickle.loads(pickle.dumps(f))
            assert again == f and again.table == f.table
            assert (again.level, again.family) == (f.level, f.family)
            assert again != CylinderFunction.constant(CTX21, f.family, f.level, 7)
            for name, value in (("level", 3), ("family", H), ("rows", {}), ("table", {})):
                with pytest.raises(AttributeError):
                    setattr(f, name, value)

    def test_indicator_of_deep_level_shares_zero_row(self):
        ctx = HeisenbergContext(m=2, rank=2, form=BilinearForm.from_rows([[0, 1], [0, 0]]),
                                precision=8)
        f = CylinderFunction.indicator(ctx, G, 4, ctx.point((5, 6), 7))
        assert len({id(row) for row in f.rows.values()}) == 2
        assert integrate(ctx, f) == Fraction(1, 2 ** 16)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


HAAR_ARGV = ("haar", "--m", "2", "--N", "1", "--b", "[[1]]")


class TestFunctionFiles:
    def test_family_or_level_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(CylinderFunction.indicator(
            CTX21, G, 1, CTX21.identity()).to_json()))
        for flags in (("--family", "H", "--level", "3"), ("--family", "H", "--level", "1"),
                      ("--level", "2")):
            code, out, err = run_main(capsys, *HAAR_ARGV, *flags, "--function", f"@{path}")
            assert (code, out) == (1, "") and err.startswith("DomainError")
        for at in ("1", "2", "3"):
            assert run_main(capsys, *HAAR_ARGV, "--level", "1", "--function", f"@{path}",
                            "--at-level", at)[:2] == (0, '{"integral": "1/8"}\n')

    @pytest.mark.parametrize("level", [1.0, True, "1", None])
    def test_non_integer_level_rejected(self, level, tmp_path, capsys):
        obj = CylinderFunction.constant(CTX21, G, 1, 1).to_json()
        with pytest.raises(TypeError):
            CylinderFunction.from_json({**obj, "level": level})
        with pytest.raises(TypeError):
            CylinderFunction(level=level, family=G, table=dict.fromkeys(
                CTX21.coset_digits(G, 1), Fraction(1)))
        path = tmp_path / "f.json"
        path.write_text(json.dumps({**obj, "level": level}))
        code, out, err = run_main(capsys, *HAAR_ARGV, "--level", "1", "--function", f"@{path}")
        assert (code, out) == (2, "") and err.startswith("TypeError")


class TestTableShape:
    def bad_shapes(self):
        """Tables over CTX21 at level 1 that are not one full row per vector
        digit, most with the full count of entries (4 for H, 8 for G)."""
        h, g = oracle_constant(CTX21, H, 1, 1), oracle_constant(CTX21, G, 1, 1)
        misplaced = {((9,) if k[0] == (1,) else k[0], k[1]): v for k, v in h.items()}
        uneven = {**{k: v for k, v in g.items() if k != ((1,), 3)}, ((0,), 4): Fraction(1)}
        wide = {**{k: v for k, v in h.items() if k[0] == (0,)},
                ((0,), 2): Fraction(1), ((0,), 3): Fraction(1)}
        return [(H, misplaced), (G, uneven), (H, wide), (G, {((0,), 0): Fraction(1)})]

    def test_every_entry_point_rejects_a_bad_shape(self):
        for family, table in self.bad_shapes():
            f = CylinderFunction(level=1, family=family, table=table)
            for call in (lambda: f.check_complete(CTX21),
                         lambda: integrate(CTX21, f), lambda: integrate(CTX21, f, 2),
                         lambda: translate(CTX21, f, CTX21.identity(), "left"),
                         lambda: translate(CTX21, f, CTX21.identity(), "right"),
                         lambda: pushforward_table(CTX21, f, 2)):
                with pytest.raises(DomainError):
                    call()

    def test_gap_in_a_row_rejected(self):
        table = {k: v for k, v in oracle_constant(CTX21, H, 1, 1).items() if k != ((1,), 1)}
        with pytest.raises(DomainError):
            CylinderFunction(level=1, family=H, table={**table, ((9,), 9): Fraction(1)})
        with pytest.raises(DomainError):
            CylinderFunction(level=1, family=H, table={**table, ((1,), 2): Fraction(1)})

    def test_gap_in_a_row_rejected_through_cli(self, tmp_path, capsys):
        obj = CylinderFunction.constant(CTX21, H, 1, 1).to_json()
        obj["entries"][3]["rep"] = {"x": [9], "s": 9}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_main(capsys, *HAAR_ARGV, "--family", "H", "--level", "1",
                                  "--function", f"@{path}")
        assert (code, out) == (1, "") and err.startswith("DomainError")
