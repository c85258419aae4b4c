"""point_ops: a seeded stream of single-element library calls.

No call enumerates a quotient, so per-object overhead dominates.  Every pass
holds each call kind the same number of times, spread over a fixed pool of
contexts (m in {2, 3, 10}, rank in {1, 2, 4}, precision 6 or about 128
bits).  The parameters that set a call's cost (valuation, depth, level,
family) step evenly through their range with the call's index q, so the mix
of work is the same for every seed; the seed chooses the forms, the
residues and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from madic_heisenberg import localization as loc
from madic_heisenberg import madic, tower
from madic_heisenberg.heisenberg import ChainFamily, HeisenbergContext
from madic_heisenberg.hmodule import BilinearForm, ModuleVec, apply_linear, bilinear_eval

from . import reference as ref
from .engine import Op, Workload

MODULI = (2, 3, 10)
RANKS = (1, 2, 4)
SMALL_PRECISION = 6
BIG_PRECISION = {2: 128, 3: 81, 10: 39}  # residues of about 128 bits
CALLS_PER_KIND = {"full": 108, "tiny": 18}  # multiples of every pool size
CHAIN_MODULI = (2, 3, 4, 6, 8, 9, 10, 12)
RINGS = ((None, (2, 3)), (12, (2,)), (30, (2, 3)))  # Z, or Z/k, with S generated by gens
GROUP_OP_WEIGHT = {"heisenberg.mul": 1, "heisenberg.inv": 1, "heisenberg.conjugate": 1,
                   "heisenberg.dilate": 1, "heisenberg.group_distance": 2}


def _point_canon(g):
    return g.s.n, g.x.values(), g.s.value


def _madic_canon(x):
    return x.n, x.value


class _Ctx:
    """One group of the pool, with the raw data the reference needs."""

    def __init__(self, rng, m, rank, n):
        self.m, self.rank, self.n, self.M = m, rank, n, m ** n
        self.b = tuple(tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank))
        self.ctx = HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(self.b),
                                     precision=n)

    def raw(self, rng, depth=0, c=1):
        """Random reduced point with x = 0 mod m^depth and s = 0 mod m^(c*depth)."""
        step, cstep = self.m ** depth, self.m ** (c * depth)
        return (tuple(rng.randrange(0, self.M, step) for _ in range(self.rank)),
                rng.randrange(0, self.M, cstep) if cstep <= self.M else 0)

    def point(self, raw):
        return self.ctx.point(*raw)

    def key(self, span, **args):
        return {"op": span, "m": self.m, "N": self.rank, "n": self.n, "b": self.b, **args}


def _family(q):
    return (ChainFamily.H, ChainFamily.G)[q % 2]


def _step(q, reps, lo, hi):
    """The q-th of reps values spread evenly over lo..hi."""
    return lo + q * (hi - lo + 1) // reps


# heisenberg -------------------------------------------------------------------


def _h_point(rng, c: _Ctx, *_):
    xs = tuple(rng.randrange(-c.M, 2 * c.M) for _ in range(c.rank))
    s = rng.randrange(-c.M, 2 * c.M)
    return Op("heisenberg.point", c.ctx.point, (xs, s), _point_canon,
              lambda: (c.n, *ref.point(c.M, xs, s)), c.key("point", xs=xs, s=s))


def _h_binary(span, method, law):
    def build(rng, c: _Ctx, *_):
        g, h = c.raw(rng), c.raw(rng)
        return Op(span, getattr(c.ctx, method), (c.point(g), c.point(h)), _point_canon,
                  lambda: (c.n, *law(c.M, c.b, g, h)), c.key(span, g=g, h=h))
    return build


def _h_inv(rng, c: _Ctx, *_):
    g = c.raw(rng)
    return Op("heisenberg.inv", c.ctx.inv, (c.point(g),), _point_canon,
              lambda: (c.n, *ref.inv(c.M, c.b, g)), c.key("inv", g=g))


def _h_dilate(rng, c: _Ctx, *_):
    g, r = c.raw(rng), rng.randint(-6, 6)
    return Op("heisenberg.dilate", c.ctx.dilate, (r, c.point(g)), _point_canon,
              lambda: (c.n, *ref.dilate(c.M, r, g)), c.key("dilate", r=r, g=g))


def _h_distance(rng, c: _Ctx, q, reps):
    family = _family(q)
    fc = family.central_exponent
    g = c.raw(rng)
    h = ref.mul(c.M, c.b, g, c.raw(rng, _step(q, reps, 0, c.n // fc), fc))
    return Op("heisenberg.group_distance", c.ctx.group_distance,
              (c.point(g), c.point(h), family), lambda d: (d.valuation, d.radius, d.exact),
              lambda: ref.group_distance(c.m, c.n, c.b, g, h, fc),
              c.key("group_distance", g=g, h=h, family=family.value))


def _h_member(rng, c: _Ctx, q, reps):
    family = _family(q)
    fc = family.central_exponent
    j = _step(q, reps, 0, c.n + 1)
    g = c.raw(rng, min(j, c.n // fc) if q // 2 % 2 == 0 else 0, fc)
    return Op("heisenberg.chain_member", c.ctx.chain_member, (c.point(g), family, j),
              lambda v: v, lambda: ref.chain_member(c.m, c.n, g, fc, j),
              c.key("chain_member", g=g, family=family.value, j=j))


def _h_coset_key(rng, c: _Ctx, q, reps):
    family = _family(q)
    fc = family.central_exponent
    level = _step(q, reps, 0, c.n // fc)
    g = c.raw(rng)
    return Op("heisenberg.coset_key", c.ctx.coset_key, (c.point(g), family, level),
              lambda k: k, lambda: ref.coset_key(c.m, c.b, g, fc, level),
              c.key("coset_key", g=g, family=family.value, level=level))


# madic and hmodule -----------------------------------------------------------------


def _residue(rng, c: _Ctx, v):
    """m^v * u mod M for a random u (zero when v = n)."""
    return (c.m ** v * rng.randrange(1, c.M)) % c.M


def _madic_binary(span, fn, law):
    def build(rng, c: _Ctx, *_):
        x, y = rng.randrange(c.M), rng.randrange(c.M)
        return Op(span, fn, (madic.MadicInt(c.m, c.n, x), madic.MadicInt(c.m, c.n, y)),
                  _madic_canon, lambda: (c.n, law(x, y) % c.M),
                  {"op": span, "m": c.m, "n": c.n, "x": x, "y": y})
    return build


def _madic_valuation(rng, c: _Ctx, q, reps):
    x = _residue(rng, c, _step(q, reps, 0, c.n))

    def expect():
        v = ref.int_valuation(x, c.m)
        return (c.n, False) if x == 0 else (v, True)
    return Op("madic.valuation", madic.valuation, (madic.MadicInt(c.m, c.n, x),),
              lambda r: (r.bound, r.is_exact), expect,
              {"op": "valuation", "m": c.m, "n": c.n, "x": x})


def _madic_invert(rng, c: _Ctx, *_):
    u = rng.randrange(1, c.M)
    while gcd(u, c.m) != 1:
        u = rng.randrange(1, c.M)
    return Op("madic.invert_unit", madic.invert_unit, (madic.MadicInt(c.m, c.n, u),),
              _madic_canon, lambda: (c.n, pow(u, -1, c.M)),
              {"op": "invert_unit", "m": c.m, "n": c.n, "u": u})


def _madic_geom(rng, c: _Ctx, q, reps):
    x = _residue(rng, c, _step(q, reps, 1, c.n))
    return Op("madic.geom_inverse", madic.geom_inverse_one_minus, (madic.MadicInt(c.m, c.n, x),),
              _madic_canon, lambda: (c.n, pow((1 - x) % c.M, -1, c.M)),
              {"op": "geom_inverse", "m": c.m, "n": c.n, "x": x})


def _hm_bilinear(rng, c: _Ctx, *_):
    x, y = c.raw(rng)[0], c.raw(rng)[0]
    return Op("hmodule.bilinear_eval", bilinear_eval,
              (c.ctx.form, ModuleVec.from_integers(x, c.m, c.n), ModuleVec.from_integers(y, c.m, c.n)),
              _madic_canon, lambda: (c.n, ref.bil(c.b, x, y) % c.M), c.key("bilinear_eval", x=x, y=y))


def _hm_linear(rng, c: _Ctx, *_):
    rows = tuple(tuple(rng.randint(-9, 9) for _ in range(c.rank)) for _ in range(c.rank))
    x = c.raw(rng)[0]
    return Op("hmodule.apply_linear", apply_linear, (rows, ModuleVec.from_integers(x, c.m, c.n)),
              lambda v: (v.n, v.values()),
              lambda: (c.n, tuple(sum(r * v for r, v in zip(row, x)) % c.M for row in rows)),
              c.key("apply_linear", rows=rows, x=x))


# tower and localization ------------------------------------------------------------


def _t_distance(rng, m, q, reps):
    x = rng.randrange(-10 ** 12, 10 ** 12)
    y = x if q == 0 else x - m ** _step(q, reps, 0, 20) * rng.randrange(1, 10 ** 6)

    def expect():
        v = ref.int_valuation(x - y, m)
        return v, Fraction(0) if x == y else ref.HALF ** v
    return Op("tower.distance", tower.distance, (x, y, tower.ChainSpec.ideal_power(m)),
              lambda d: (d.valuation, d.radius), expect,
              {"op": "distance", "m": m, "x": x, "y": y})


def _t_equivalence(rng, _, q, reps):
    a, b = CHAIN_MODULI[q % 8], CHAIN_MODULI[q // 8 % 8]
    depth = 3 + q % 6
    return Op("tower.chain_equivalence", tower.check_chain_equivalence,
              (tower.ChainSpec.ideal_power(a), tower.ChainSpec.ideal_power(b), depth),
              lambda r: (r.equivalent, tuple(r.forward.items()), tuple(r.backward.items()),
                         r.failing_direction, r.failing_index),
              lambda: ref.chain_equivalence(a, b, depth),
              {"op": "chain_equivalence", "a": a, "b": b, "depth": depth})


class _Ring:
    def __init__(self, k, gens):
        self.k, self.gens = k, gens
        base = loc.BaseRing.integers() if k is None else loc.BaseRing.integers_mod(k)
        self.S = loc.MultSet.generated(base, gens)
        self.dens = sorted(ref.closure(k, gens)) if k is not None else None

    def raw(self, rng):
        if self.k is None:
            den = 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4)
            return rng.randrange(-10 ** 9, 10 ** 9), den
        return rng.randrange(self.k), rng.choice(self.dens)

    def frac(self, raw):
        return loc.Fraction(ring=self.S.ring, mult_set=self.S, num=raw[0], den=raw[1])

    def key(self, span, **args):
        return {"op": span, "k": self.k, "gens": self.gens, **args}


def _l_equal(rng, r: _Ring, q, reps):
    a = r.raw(rng)
    if q % 2 == 0:
        t = r.raw(rng)[1]
        b = (a[0] * t, a[1] * t)
    else:
        b = r.raw(rng)
    return Op("localization.frac_equal", loc.frac_equal, (r.frac(a), r.frac(b)), lambda v: v,
              lambda: ref.frac_equal(r.k, r.gens, a, b), r.key("frac_equal", a=a, b=b))


def _l_add(rng, r: _Ring, *_):
    a, b = r.raw(rng), r.raw(rng)
    return Op("localization.frac_add", loc.frac_add, (r.frac(a), r.frac(b)),
              lambda f: (f.num, f.den), lambda: ref.frac_add(r.k, a, b), r.key("frac_add", a=a, b=b))


def _l_kernel(rng, r: _Ring, q, reps):
    if r.k is None:
        a = 0 if q % 4 == 0 else rng.randrange(-10 ** 9, 10 ** 9)
    else:
        a = rng.randrange(r.k)
    return Op("localization.kernel_witness", loc.kernel_witness, (a, r.S), lambda v: v,
              lambda: ref.kernel_witness(r.k, r.gens, a % r.k if r.k else a),
              r.key("kernel_witness", a=a))


def _l_heis_mul(rng, rank, *_):
    r = _Ring(None, (2, 3))
    b = tuple(tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank))

    def raw():
        xs = tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rank))
        s, s_den = r.raw(rng)
        return xs, r.raw(rng)[1], s, s_den
    g, h = raw(), raw()

    def frac_point(p):
        return loc.FracHPoint(x=loc.ModuleFraction(mult_set=r.S, num=p[0], den=p[1]),
                              s=r.frac((p[2], p[3])))
    return Op("localization.frac_heis_mul", loc.frac_heis_mul,
              (BilinearForm.from_rows(b), frac_point(g), frac_point(h)),
              lambda p: (tuple(Fraction(v, p.x.den) for v in p.x.num), Fraction(p.s.num, p.s.den)),
              lambda: ref.frac_heis_mul(b, g, h), {"op": "frac_heis_mul", "b": b, "g": g, "h": h})


def generate(seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"point_ops:{seed}")
    groups = [_Ctx(rng, m, rank, n) for m in MODULI for rank in RANKS
              for n in (SMALL_PRECISION, BIG_PRECISION[m])]
    scalars = [g for g in groups if g.rank == 1]
    rings = [_Ring(k, gens) for k, gens in RINGS]
    kinds = (
        (_h_point, groups), (_h_binary("heisenberg.mul", "mul", ref.mul), groups), (_h_inv, groups),
        (_h_binary("heisenberg.conjugate", "conjugate", ref.conj), groups), (_h_dilate, groups),
        (_h_distance, groups), (_h_member, groups), (_h_coset_key, groups),
        (_madic_binary("madic.add", madic.add, lambda x, y: x + y), scalars),
        (_madic_binary("madic.mul", madic.mul, lambda x, y: x * y), scalars),
        (_madic_valuation, scalars), (_madic_invert, scalars), (_madic_geom, scalars),
        (_hm_bilinear, groups), (_hm_linear, groups),
        (_t_distance, MODULI), (_t_equivalence, (None,)),
        (_l_equal, rings), (_l_add, rings), (_l_kernel, rings), (_l_heis_mul, RANKS),
    )
    per_kind = CALLS_PER_KIND[size]
    ops = [build(rng, pool[i % len(pool)], i // len(pool), per_kind // len(pool))
           for build, pool in kinds for i in range(per_kind)]
    rng.shuffle(ops)
    return Workload(
        name="point_ops", ops=ops,
        counts=lambda: {"count.group_ops": sum(GROUP_OP_WEIGHT.get(op.span, 0) for op in ops),
                        "count.cosets_enumerated": 0, "count.normality_pairs_bound": 0,
                        "count.cli_invocations": 0},
        info={"ops_per_pass": len(ops), "call_kinds": len(kinds), "calls_per_kind": per_kind,
              "contexts": [[g.m, g.rank, g.n] for g in groups],
              "rings": [f"Z/{k}" if k else "Z" for k, _ in RINGS]},
        tail_cap=Fraction(99),
    )


def raw_mul_ops(workload: Workload) -> list[Op]:
    """The reference group law on the inputs of every heisenberg.mul call."""
    return [Op("ref.raw_mul", ref.mul, (op.key["m"] ** op.key["n"], op.key["b"], op.key["g"],
                                        op.key["h"]), lambda r: None, lambda: None, op.key)
            for op in workload.ops if op.span == "heisenberg.mul"]
