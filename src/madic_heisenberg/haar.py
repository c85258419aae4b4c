"""Exact Haar integration on the compact Heisenberg group.

Integrable functions are cylinder functions: exact-rational tables over
the cosets of a chain subgroup at some level.  The invariant integral of
such a function is its average over coset representatives, computed
exactly; no limits are taken numerically because the averages stabilize
at the function's own level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import DomainError
from .heisenberg import ChainFamily, HeisenbergContext, HPoint
from .tower import format_rational, parse_rational


def quotient_size(ctx: HeisenbergContext, family: ChainFamily, level: int) -> int:
    """Index of the level subgroup: m^(level*(N+1)) for H, m^(level*(N+2)) for G."""
    return ctx.m ** (level * (ctx.rank + family.central_exponent))


@dataclass(frozen=True)
class CosetReps:
    level: int
    family: ChainFamily
    reps: tuple[HPoint, ...]


def enumerate_cosets(ctx: HeisenbergContext, family: ChainFamily, n: int) -> CosetReps:
    """Canonical coset representatives at level n, in the order of
    ctx.coset_digits."""
    reps = tuple(ctx._new(xs, s) for xs, s in ctx.coset_digits(family, n))
    return CosetReps(level=n, family=family, reps=reps)


@dataclass(frozen=True)
class CylinderFunction:
    """Level-l table of exact rationals over the cosets of the level-l
    subgroup, keyed by canonical digits ((x_1, ..., x_N), s)."""

    level: int
    family: ChainFamily
    table: dict

    def __post_init__(self):
        # a copy, so the caller's dict cannot change f; exact values are kept
        object.__setattr__(self, "table", {
            k: v if type(v) is Fraction else Fraction(v) for k, v in self.table.items()})

    def value_at(self, ctx: HeisenbergContext, g: HPoint) -> Fraction:
        return self.table[ctx.coset_key(g, self.family, self.level)]

    @classmethod
    def constant(cls, ctx: HeisenbergContext, family: ChainFamily, level: int,
                 value) -> "CylinderFunction":
        return cls(level=level, family=family,
                   table=dict.fromkeys(ctx.coset_digits(family, level), Fraction(value)))

    @classmethod
    def indicator(cls, ctx: HeisenbergContext, family: ChainFamily, level: int,
                  of: HPoint) -> "CylinderFunction":
        """Indicator of the coset containing `of`."""
        target = ctx.coset_key(of, family, level)
        return cls(level=level, family=family, table={
            k: Fraction(int(k == target)) for k in ctx.coset_digits(family, level)
        })

    def check_complete(self, ctx: HeisenbergContext):
        expected = quotient_size(ctx, self.family, self.level)
        if len(self.table) != expected:
            raise DomainError(
                f"table has {len(self.table)} entries, quotient has {expected} cosets"
            )

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        if (self.level, self.family) != (other.level, other.family):
            raise DomainError("can only add cylinder functions at the same level and family")
        return CylinderFunction(
            level=self.level, family=self.family,
            table={k: v + other.table[k] for k, v in self.table.items()},
        )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "family": self.family.value,
            "entries": [
                {"rep": {"x": list(k[0]), "s": k[1]}, "value": format_rational(v)}
                for k, v in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CylinderFunction":
        table = {
            (tuple(e["rep"]["x"]), e["rep"]["s"]): parse_rational(e["value"])
            for e in obj["entries"]
        }
        return cls(level=obj["level"], family=ChainFamily(obj["family"]), table=table)


def average_over(ctx: HeisenbergContext, f: CylinderFunction, points) -> Fraction:
    """Exact average of f over a finite list of points: the value of each
    coset weighted by the number of points whose coset key it is."""
    points = list(points)
    ctx._check(*points)
    counts = Counter(map(ctx._keyer(f.family, f.level), points))
    return sum((f.table[k] * n for k, n in counts.items()), Fraction(0)) / len(points)


def integrate(ctx: HeisenbergContext, f: CylinderFunction, n: int | None = None) -> Fraction:
    """Invariant integral: the average of the table.

    When asked at a deeper level n the average over level-n representatives
    is computed and checked against the level-l value; they agree exactly
    because every level-l coset splits into equally many level-n cosets.
    """
    f.check_complete(ctx)
    base = sum(f.table.values(), Fraction(0)) / len(f.table)
    if n is None or n == f.level:
        return base
    if n < f.level:
        raise DomainError(f"integration level {n} below function level {f.level}")
    if average_over(ctx, f, enumerate_cosets(ctx, f.family, n).reps) != base:
        raise AssertionError("coset average failed to stabilize")
    return base


def _retabulate(ctx: HeisenbergContext, f: CylinderFunction, level: int,
                compose) -> CylinderFunction:
    """g -> f(compose(g)) tabulated over the canonical cosets at level, one
    row (a vector digit xs and every central digit s) at a time.

    compose maps a digit key to the residues (xs, s) of a point and must
    add s unchanged to the centre, as the group law on either side and the
    identity do; level must be at least f.level, so that f's row period
    m^(c*f.level) divides the output row width.  Then the row at xs is f's
    row at x0 rotated by t, for (x0, t) the key of compose((xs, 0)), and
    repeated to the width: one law and key evaluation per vector digit."""
    key = ctx._keyer(f.family, f.level)
    vectors, width = ctx.coset_rows(f.family, level)
    period = ctx.m ** (f.family.central_exponent * f.level)
    table = {}
    for xs in vectors:
        x0, t = key(compose((xs, 0)))
        row = [f.table[x0, (t + s) % period] for s in range(period)]
        table.update(zip(zip(repeat(xs), range(width)), row * (width // period)))
    return CylinderFunction(level=level, family=f.family, table=table)


def translate(ctx: HeisenbergContext, f: CylinderFunction, a: HPoint,
              side: str) -> CylinderFunction:
    """Translate of f by a: left sends g to f(a <> g) at the same level;
    right sends g to f(g <> a), re-tabulated at level 2l for family G
    (where it is only a level-2l cylinder function) and at level l for
    the normal family H."""
    f.check_complete(ctx)
    ctx._check(a)
    if side == "left":
        return _retabulate(ctx, f, f.level, lambda k: ctx._law(a, k))
    if side == "right":
        new_level = f.level if f.family is ChainFamily.H else 2 * f.level
        return _retabulate(ctx, f, new_level, lambda k: ctx._law(k, a))
    raise DomainError(f"side must be 'left' or 'right', got {side!r}")


def pushforward_table(ctx: HeisenbergContext, f: CylinderFunction,
                      n: int) -> CylinderFunction:
    """The same function re-tabulated at a deeper level n > l; the
    integral is preserved exactly."""
    if n <= f.level:
        raise DomainError(f"target level {n} must exceed function level {f.level}")
    return _retabulate(ctx, f, n, lambda k: k)
