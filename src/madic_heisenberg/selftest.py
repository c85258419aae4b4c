"""Deterministic reduced property suite behind the `selftest` subcommand.

Fixed seed, a few hundred samples per law; prints one line per check and
returns a nonzero status if anything fails.  The full suite lives in the
test tree; this is the quick field check.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as Rational

from . import localization as loc
from . import madic, tower
from .haar import CylinderFunction, enumerate_cosets, integrate, translate
from .heisenberg import ChainFamily, HeisenbergContext
from .hmodule import BilinearForm

SEED = 20240917


def _ultrametric(rng: random.Random) -> bool:
    for m in (2, 3, 10):
        chain = tower.ChainSpec.ideal_power(m)
        for _ in range(300):
            x, y, z, t = (rng.randrange(-10**6, 10**6) for _ in range(4))
            dxy = tower.distance(x, y, chain).radius
            dyz = tower.distance(y, z, chain).radius
            dxz = tower.distance(x, z, chain).radius
            if dxz > max(dxy, dyz):
                return False
            if dxy != tower.distance(y, x, chain).radius:
                return False
            if dxy != tower.distance(x + t, y + t, chain).radius:
                return False
    return True


def _ring(rng: random.Random) -> bool:
    m, n = 2, 6
    for _ in range(300):
        a, b, c = (madic.from_integer(rng.randrange(10**6), m, n) for _ in range(3))
        if (a + b) * c != a * c + b * c:
            return False
        if a * (b * c) != (a * b) * c or a + b != b + a or a * b != b * a:
            return False
        if madic.truncate(a * b, 3) != madic.truncate(a, 3) * madic.truncate(b, 3):
            return False
    x = madic.from_integer(2, 2, 5)
    s = madic.geom_inverse_one_minus(x)
    if s.value != 31 or (madic.one(2, 5) - x) * s != madic.one(2, 5):
        return False
    for _ in range(50):
        x = madic.scale(m, madic.from_integer(rng.randrange(10**6), m, n))
        if (madic.one(m, n) - x) * madic.geom_inverse_one_minus(x) != madic.one(m, n):
            return False
    return True


def _group(rng: random.Random) -> bool:
    ctx = HeisenbergContext(m=2, rank=2, form=BilinearForm.from_rows([[0, 1], [0, 0]]),
                            precision=6)
    top = ctx.m ** ctx.precision
    sample = lambda: ctx.point((rng.randrange(top), rng.randrange(top)), rng.randrange(top))
    e = ctx.identity()
    for _ in range(300):
        g, h, k = sample(), sample(), sample()
        if ctx.mul(ctx.mul(g, h), k) != ctx.mul(g, ctx.mul(h, k)):
            return False
        if ctx.mul(g, e) != g or ctx.mul(e, g) != g:
            return False
        if ctx.mul(g, ctx.inv(g)) != e:
            return False
        ctx.conjugate(g, h)  # raises if the closed form is violated
        if ctx.dilate(2, ctx.dilate(3, g)) != ctx.dilate(6, g):
            return False
    return True


def _chains(rng: random.Random) -> bool:
    ctx = HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]), precision=6)
    for _ in range(200):
        j = rng.randrange(1, 3)
        g = ctx.point((2**j * rng.randrange(16),), 4**j * rng.randrange(4))
        if not (ctx.chain_member(g, ChainFamily.G, j)
                and ctx.chain_member(g, ChainFamily.H, j)):
            return False
        if ctx.chain_member(ctx.dilate(2, g), ChainFamily.G, j + 1) is False:
            return False
    rep = ctx.check_normality(ChainFamily.H, 2, 4)
    if not rep.normal:
        return False
    ctx2 = HeisenbergContext(m=2, rank=2, form=BilinearForm.from_rows([[0, 1], [0, 0]]),
                             precision=6)
    rep2 = ctx2.check_normality(ChainFamily.G, 1, 4)
    return not rep2.normal and rep2.witness is not None


def _haar(rng: random.Random) -> bool:
    ctx = HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]), precision=4)
    fam = ChainFamily.G
    if integrate(ctx, CylinderFunction.constant(ctx, fam, 1, 1)) != Rational(1):
        return False
    ind = CylinderFunction.indicator(ctx, fam, 1, ctx.identity())
    if integrate(ctx, ind) != Rational(1, 8):
        return False
    reps = enumerate_cosets(ctx, fam, 1).reps
    f = CylinderFunction(level=1, family=fam, table={
        ctx.coset_key(r, fam, 1): Rational(rng.randrange(-5, 6), rng.randrange(1, 7))
        for r in reps
    })
    base = integrate(ctx, f)
    for a in reps:
        if integrate(ctx, translate(ctx, f, a, "left")) != base:
            return False
        if integrate(ctx, translate(ctx, f, a, "right")) != base:
            return False
    return True


def _isometry(rng: random.Random) -> bool:
    ctx = HeisenbergContext(m=2, rank=1, form=BilinearForm.from_rows([[1]]), precision=5)
    chain = tower.ChainSpec.ideal_power(2)
    for _ in range(200):
        g = ctx.point((rng.randrange(32),), rng.randrange(32))
        h = ctx.point((rng.randrange(32),), rng.randrange(32))
        d = ctx.group_distance(g, h, ChainFamily.H)
        seq_g = [ctx.coset_key(g, ChainFamily.H, j) for j in range(1, 6)]
        seq_h = [ctx.coset_key(h, ChainFamily.H, j) for j in range(1, 6)]
        agree = next((i for i, (a, b) in enumerate(zip(seq_g, seq_h)) if a != b), 5)
        if d.valuation != agree:
            return False
    return True


def _fractions(rng: random.Random) -> bool:
    S = loc.MultSet.generated(loc.BaseRing.integers(), [2])
    for _ in range(300):
        a = loc.Fraction(ring=S.ring, mult_set=S, num=rng.randrange(-50, 51),
                         den=2 ** rng.randrange(5))
        b = loc.Fraction(ring=S.ring, mult_set=S, num=rng.randrange(-50, 51),
                         den=2 ** rng.randrange(5))
        if loc.frac_to_rational(loc.frac_add(a, b)) != \
                loc.frac_to_rational(a) + loc.frac_to_rational(b):
            return False
        if loc.frac_to_rational(loc.frac_mul(a, b)) != \
                loc.frac_to_rational(a) * loc.frac_to_rational(b):
            return False
    S6 = loc.MultSet.generated(loc.BaseRing.integers_mod(6), [3])
    if loc.kernel_witness(2, S6) != 3:
        return False
    form = BilinearForm.from_rows([[0, 1], [-1, 0]])
    ctxS = loc.MultSet.generated(loc.BaseRing.integers(), [2, 3])
    for _ in range(100):
        xs = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        ys = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        s, t = rng.randrange(-9, 10), rng.randrange(-9, 10)
        prod_s = s + t + form.eval_ints(xs, ys)
        prod_x = tuple(p + q for p, q in zip(xs, ys))
        lhs = loc.heis_frac_hom(prod_x, prod_s, ctxS)
        rhs = loc.frac_heis_mul(form, loc.heis_frac_hom(xs, s, ctxS),
                                loc.heis_frac_hom(ys, t, ctxS))
        if not loc.frac_hpoint_equal(lhs, rhs):
            return False
    return True


CHECKS = [
    ("ultrametric axioms", _ultrametric),
    ("completion ring axioms and geometric inverse", _ring),
    ("heisenberg group axioms and closed forms", _group),
    ("chain sandwich, dilations, normality verdicts", _chains),
    ("haar averages and translation invariance", _haar),
    ("embedding isometry", _isometry),
    ("fraction arithmetic and homomorphisms", _fractions),
]


def run(stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    rng = random.Random(SEED)
    failures = 0
    for name, check in CHECKS:
        ok = check(rng)
        failures += not ok
        print(f"{'ok' if ok else 'FAIL'} - {name}", file=stream)
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed", file=stream)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
