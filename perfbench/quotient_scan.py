"""quotient_scan: a fixed, seeded list of quotient-sized jobs.

Cost grows exponentially with the level and goes to enumeration and
brute-force conjugation.  The list is the same for every seed: the seed
only picks the bilinear forms (within the congruence class that fixes each
verdict, so every normality scan stops at the same pair) and the points.
It includes the two worst cases that still finish in seconds,
check_normality(H, j=1, L=3) and a right translate of a family-G level-2
function, both for m=2 and rank 2.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from madic_heisenberg import haar
from madic_heisenberg.heisenberg import ChainFamily, HeisenbergContext
from madic_heisenberg.hmodule import BilinearForm

from . import reference as ref
from .engine import Op, Workload

FAMILIES = {"H": ChainFamily.H, "G": ChainFamily.G}
SCOPE = "image in G/H_{} only (finite-quotient certificate)"

# Groups: (name, m, rank, precision, skew) where skew fixes the residue class
# of d = b[0][1] - b[1][0], and so the normality of G_1 (None for rank 1).
GROUPS = (
    ("Q1", 2, 2, 8, "unit"),   # G_1 not normal
    ("Q2", 2, 2, 8, "unit"),
    ("Q3", 2, 1, 8, None),     # rank 1: B is symmetric, every G_j normal
    ("Q4", 3, 1, 4, None),
    ("Q5", 3, 2, 4, "unit"),
    ("Q6", 2, 2, 8, "zero"),   # G_1 normal
)

# One pass.  Normality: (group, family, j, level); weak: (group, family, j,
# depth, level); haar jobs: (group, family, level[, target level]).  The
# five heaviest jobs run once a pass and every other job REPEATS times with
# fresh seeded points, so the median and the tail fall among many jobs of
# similar cost rather than on one job.
HEAVY = (
    ("normality", "Q1", "H", 1, 3),
    ("translate", "Q1", "G", 2, "right"),
    ("normality", "Q3", "G", 1, 4),
    ("normality", "Q1", "G", 1, 4),
    ("normality", "Q2", "G", 1, 4),
)
REPEATS = 4
FULL = (
    ("normality", "Q3", "H", 1, 3),
    ("normality", "Q6", "G", 1, 2),
    ("normality", "Q1", "G", 1, 2),
    ("normality", "Q1", "H", 1, 2),
    ("normality", "Q5", "G", 1, 2),
    ("normality", "Q4", "H", 1, 2),
    ("normality", "Q4", "G", 1, 2),
    ("normality", "Q3", "G", 1, 3),
    ("weak", "Q1", "H", 1, 2, 3),
    ("weak", "Q1", "G", 1, 1, 2),
    ("weak", "Q4", "H", 1, 0, 2),
    ("weak", "Q3", "G", 1, 2, 4),
    ("enumerate", "Q1", "H", 1),
    ("enumerate", "Q1", "G", 1),
    ("enumerate", "Q1", "G", 2),
    ("enumerate", "Q4", "H", 2),
    ("enumerate", "Q5", "G", 1),
    ("enumerate", "Q3", "G", 2),
    ("enumerate", "Q5", "H", 2),
    ("enumerate", "Q3", "H", 3),
    ("constant", "Q1", "G", 1),
    ("constant", "Q1", "G", 2),
    ("constant", "Q4", "H", 2),
    ("constant", "Q5", "G", 1),
    ("constant", "Q3", "H", 3),
    ("indicator", "Q1", "G", 1),
    ("indicator", "Q1", "G", 2),
    ("indicator", "Q5", "H", 2),
    ("indicator", "Q3", "G", 2),
    ("indicator", "Q4", "G", 1),
    ("integrate", "Q1", "G", 1, "constant"),
    ("integrate", "Q1", "G", 2, "indicator"),
    ("integrate", "Q5", "H", 1, "indicator"),
    ("integrate", "Q4", "H", 1, "constant"),
    ("integrate", "Q3", "G", 1, "indicator"),
    ("translate", "Q1", "G", 2, "left"),
    ("translate", "Q1", "G", 1, "right"),
    ("translate", "Q4", "H", 2, "right"),
    ("translate", "Q5", "H", 1, "left"),
    ("translate", "Q3", "G", 1, "right"),
    ("translate", "Q5", "G", 1, "left"),
    ("pushforward", "Q1", "G", 1, 2),
    ("pushforward", "Q5", "H", 1, 2),
    ("pushforward", "Q3", "G", 1, 3),
    ("pushforward", "Q4", "H", 2, 3),
)

TINY = (
    ("normality", "Q1", "G", 1, 2),
    ("normality", "Q3", "H", 1, 2),
    ("weak", "Q1", "H", 1, 1, 2),
    ("enumerate", "Q1", "G", 1),
    ("constant", "Q1", "G", 1),
    ("indicator", "Q1", "G", 1),
    ("integrate", "Q1", "G", 1, "indicator"),
    ("translate", "Q1", "G", 1, "left"),
    ("translate", "Q1", "G", 1, "right"),
    ("pushforward", "Q1", "G", 1, 2),
)

# At least four passes: two calls of several seconds dominate a pass, and
# the error of scaling them to the reference speed averages out only over
# several of each.  (Nearest-rank p90 needs only 100 samples.)
MIN_PASSES = 4


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _table_canon(f):
    return digest((f.level, f.family.value, sorted(f.table.items())))


def _ref_table_canon(level, family, table):
    return digest((level, family, sorted(table.items())))


class _Group:
    def __init__(self, rng, name, m, rank, n, skew):
        self.name, self.m, self.rank, self.n, self.M = name, m, rank, n, m ** n
        while True:
            b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
            d = b[0][1] - b[1][0] if rank > 1 else 0
            if skew is None or (skew == "unit") == (d % m != 0):
                break
        self.b = tuple(tuple(row) for row in b)
        self.ctx = HeisenbergContext(m=m, rank=rank, form=BilinearForm.from_rows(self.b),
                                     precision=n)

    def raw(self, rng):
        return tuple(rng.randrange(self.M) for _ in range(self.rank)), rng.randrange(self.M)

    def table(self, kind, family, level, rng):
        """A seeded constant value or indicator point, and a function that
        builds the reference table of that cylinder function."""
        c = ref.FAMILY_C[family]
        if kind == "constant":
            value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            return value, lambda: {k: value for k in ref.reps(self.m, self.rank, c, level)}
        of = self.raw(rng)
        return of, lambda: ref.indicator_table(self.m, self.b, c, level, of)

    def function(self, kind, family, level, rng):
        """A cylinder function built from its reference table, and that table."""
        table = self.table(kind, family, level, rng)[1]()
        return haar.CylinderFunction(level=level, family=FAMILIES[family], table=table), table


def _normality(rng, g: _Group, family, j, level):
    c = ref.FAMILY_C[family]

    def expect():
        normal, witness, _ = ref.predict_normality(g.m, g.b, c, j, level)
        return normal, family, j, level, witness, SCOPE.format(level)

    def canon(r):
        witness = None if r.witness is None else tuple(p.values() for p in r.witness)
        return r.normal, r.family.value, r.j, r.quotient_level, witness, r.certificate_scope

    return Op("heisenberg.check_normality", g.ctx.check_normality, (FAMILIES[family], j, level),
              canon, expect, {"family": family, "j": j, "level": level}), \
        lambda: ref.normality_work(g.m, g.b, c, j, level)


def _weak(rng, g: _Group, family, j, depth, level):
    c = ref.FAMILY_C[family]
    a = g.raw(rng)
    if family == "G":  # x = 0 mod m^j keeps the found level independent of the seed
        a = (tuple(v * g.m ** j % g.M for v in a[0]), a[1])

    def expect():
        l, _ = ref.weak_normality(g.m, g.n, g.b, c, a, j, depth, level)
        return l is not None, l

    def work():
        return ref.weak_normality(g.m, g.n, g.b, c, a, j, depth, level)[1], 0, 0
    return Op("heisenberg.check_weak_normality", g.ctx.check_weak_normality,
              (FAMILIES[family], g.ctx.point(*a), j, depth, level),
              lambda r: (r.found, r.level), expect,
              {"family": family, "a": a, "j": j, "depth": depth, "level": level}), work


def _enumerate(rng, g: _Group, family, level):
    c = ref.FAMILY_C[family]
    size = ref.quotient_size(g.m, g.rank, c, level)
    return Op("haar.enumerate_cosets", haar.enumerate_cosets, (g.ctx, FAMILIES[family], level),
              lambda reps: digest((reps.level, reps.family.value, [r.values() for r in reps.reps])),
              lambda: digest((level, family, ref.reps(g.m, g.rank, c, level))),
              {"family": family, "level": level}), lambda: (0, size, 0)


def _cylinder(kind):
    def build(rng, g: _Group, family, level):
        size = ref.quotient_size(g.m, g.rank, ref.FAMILY_C[family], level)
        arg, table = g.table(kind, family, level, rng)
        if kind == "constant":
            fn, key = haar.CylinderFunction.constant, {"value": str(arg)}
        else:
            fn, key, arg = haar.CylinderFunction.indicator, {"of": arg}, g.ctx.point(*arg)
        return Op("haar.cylinder_build", fn, (g.ctx, FAMILIES[family], level, arg), _table_canon,
                  lambda: _ref_table_canon(level, family, table()),
                  {"kind": kind, "family": family, "level": level, **key}), lambda: (0, size, 0)
    return build


def _integrate(rng, g: _Group, family, level, kind):
    f, table = g.function(kind, family, level, rng)
    size = ref.quotient_size(g.m, g.rank, ref.FAMILY_C[family], level + 1)
    return Op("haar.integrate", haar.integrate, (g.ctx, f, level + 1), lambda v: v,
              lambda: sum(table.values(), Fraction(0)) / len(table),
              {"family": family, "level": level, "kind": kind,
               "table": sorted(table.items())}), lambda: (0, size, 0)


def _translate(rng, g: _Group, family, level, side):
    c = ref.FAMILY_C[family]
    f, table = g.function("indicator", family, level, rng)
    a = g.raw(rng)
    new_level = level if side == "left" or c == 1 else 2 * level
    size = ref.quotient_size(g.m, g.rank, c, new_level)

    def expect():
        out_level, out = ref.translate(g.m, g.n, g.b, c, table, level, a, side)
        return _ref_table_canon(out_level, family, out)
    return Op("haar.translate", haar.translate, (g.ctx, f, g.ctx.point(*a), side), _table_canon,
              expect, {"family": family, "level": level, "side": side, "a": a,
                       "table": sorted(table.items())}), lambda: (size, size, 0)


def _pushforward(rng, g: _Group, family, level, target):
    c = ref.FAMILY_C[family]
    f, table = g.function("indicator", family, level, rng)
    size = ref.quotient_size(g.m, g.rank, c, target)

    def expect():
        out = ref.retabulate(g.m, g.n, g.b, c, table, level, target, lambda p: p)
        return _ref_table_canon(target, family, out)
    return Op("haar.pushforward", haar.pushforward_table, (g.ctx, f, target), _table_canon,
              expect, {"family": family, "level": level, "target": target,
                       "table": sorted(table.items())}), lambda: (0, size, 0)


BUILDERS = {"normality": _normality, "weak": _weak, "enumerate": _enumerate,
            "constant": _cylinder("constant"), "indicator": _cylinder("indicator"),
            "integrate": _integrate, "translate": _translate, "pushforward": _pushforward}


def generate(seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"quotient_scan:{seed}")
    groups = {spec[0]: _Group(rng, *spec) for spec in GROUPS}
    ops, works, seen, repeats = [], [], set(), 0
    jobs = HEAVY + FULL * REPEATS if size == "full" else TINY
    for kind, name, family, *params in jobs:
        g = groups[name]
        op, work = BUILDERS[kind](rng, g, family, *params)
        op.key = {"job": kind, "group": [g.m, g.rank, g.n, g.b], **op.key}
        level = params[{"normality": 1, "weak": 2}.get(kind, 0)]
        triple = (name, family, level)
        repeats += triple in seen
        seen.add(triple)
        ops.append(op)
        works.append(work)

    def counts():
        group_ops, cosets, pairs = (sum(col) for col in zip(*(w() for w in works)))
        return {"count.group_ops": group_ops, "count.cosets_enumerated": cosets,
                "count.normality_pairs_bound": pairs, "count.cli_invocations": 0}
    return Workload(
        name="quotient_scan", ops=ops, counts=counts,
        info={"jobs_per_pass": len(ops),
              "groups": {n: [g.m, g.rank, g.n] for n, g in groups.items()},
              "repeated_triple_share": repeats / len(ops)},
        tail_cap=Fraction(90), min_samples=MIN_PASSES * len(ops) if size == "full" else 0,
    )
