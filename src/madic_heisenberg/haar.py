"""Exact Haar integration on the compact Heisenberg group.

Integrable functions are cylinder functions: exact rationals on the cosets
of a chain subgroup at some level, stored as one row of central values per
vector digit.  The invariant integral is the exact average of the rows; at
a deeper level it is checked over one central period of each row, where
the averages have already stabilized.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

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


class _RowTable(Mapping):
    """Read-only view of rows as the table {((x_1, ..., x_N), s): value}."""

    def __init__(self, rows: dict):
        self.rows = rows

    def __getitem__(self, key):
        row = self.rows.get(key[0], ())
        if 0 <= key[1] < len(row):
            return row[key[1]]
        raise KeyError(key)

    def __iter__(self):
        return ((xs, s) for xs, row in self.rows.items() for s in range(len(row)))

    def __len__(self):
        return sum(map(len, self.rows.values()))


@dataclass(frozen=True, init=False)
class CylinderFunction:
    """Level-l function on the cosets of the level-l subgroup, stored as rows:
    each vector digit xs, in lexicographic order, maps to the tuple of exact
    values at central digits s = 0, 1, ...; .table views them by ((x_1, ..., x_N), s)."""

    level: int
    family: ChainFamily
    rows: dict

    def __init__(self, level: int, family: ChainFamily, table: Mapping):
        if type(level) is bool:
            raise TypeError("level must be an integer, not a bool")
        if type(table) is _RowTable:  # rows of Fractions, already in order: no copy
            rows = table.rows
        else:
            grouped = {}
            for (xs, s), v in table.items():
                grouped.setdefault(xs, {})[s] = v if type(v) is Fraction else Fraction(v)
            try:
                rows = {xs: tuple([row[s] for s in range(len(row))])
                        for xs, row in sorted(grouped.items())}
            except KeyError:
                raise DomainError("a row of the table skips a central digit") from None
        self.__dict__.update(level=operator.index(level), family=family, rows=rows)

    @property
    def table(self) -> Mapping:
        return _RowTable(self.rows)

    def value_at(self, ctx: HeisenbergContext, g: HPoint) -> Fraction:
        return self.table[ctx.coset_key(g, self.family, self.level)]

    @classmethod
    def constant(cls, ctx: HeisenbergContext, family: ChainFamily, level: int,
                 value) -> "CylinderFunction":
        vectors, width = ctx.coset_rows(family, level)
        return cls(level, family, _RowTable(dict.fromkeys(vectors, (Fraction(value),) * width)))

    @classmethod
    def indicator(cls, ctx: HeisenbergContext, family: ChainFamily, level: int,
                  of: HPoint) -> "CylinderFunction":
        """Indicator of the coset containing `of`."""
        x0, s0 = ctx.coset_key(of, family, level)
        f = cls.constant(ctx, family, level, 0)
        f.rows[x0] = f.rows[x0][:s0] + (Fraction(1),) + f.rows[x0][s0 + 1:]
        return f

    def check_complete(self, ctx: HeisenbergContext):
        """Reject any table but one row of m^(c*l) values per vector digit."""
        vectors, width = ctx.coset_rows(self.family, self.level)
        if list(self.rows) != list(vectors) or any(len(r) != width for r in self.rows.values()):
            raise DomainError(f"table is not one row of {width} values per vector digit")

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        if (self.level, self.family) != (other.level, other.family):
            raise DomainError("can only add cylinder functions at the same level and family")
        return CylinderFunction(self.level, self.family, _RowTable({
            xs: tuple([u + v for u, v in zip(row, other.rows[xs], strict=True)])
            for xs, row in self.rows.items()}))

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
    points, table = list(points), f.table
    ctx._check(*points)
    counts = Counter(map(ctx._keyer(f.family, f.level), points))
    return sum((table[k] * n for k, n in counts.items()), Fraction(0)) / len(points)


def integrate(ctx: HeisenbergContext, f: CylinderFunction, n: int | None = None) -> Fraction:
    """Invariant integral: the average of the table, from its row sums.

    At a deeper level n it is checked against the average over the level-n
    representatives with central digit below f's row width m^(c*l): f has
    that period along every level-n row (see _retabulate), so this is the
    average over all level-n representatives exactly."""
    f.check_complete(ctx)
    base = sum(map(sum, f.rows.values()), Fraction(0)) / quotient_size(ctx, f.family, f.level)
    if n is None or n == f.level:
        return base
    if n < f.level:
        raise DomainError(f"integration level {n} below function level {f.level}")
    vectors, _ = ctx.coset_rows(f.family, n)
    period = range(ctx.m ** (f.family.central_exponent * f.level))
    if average_over(ctx, f, [ctx._new(xs, s) for xs in vectors for s in period]) != base:
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
    rows = {}
    for xs in vectors:
        x0, t = key(compose((xs, 0)))
        row = f.rows[x0]
        rows[xs] = (row[t:] + row[:t]) * (width // len(row))
    return CylinderFunction(level, f.family, _RowTable(rows))


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
    f.check_complete(ctx)
    if n <= f.level:
        raise DomainError(f"target level {n} must exceed function level {f.level}")
    return _retabulate(ctx, f, n, lambda k: k)
