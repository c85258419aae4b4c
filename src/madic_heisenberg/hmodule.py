"""Free modules over the m-adic completion and integer bilinear forms.

Vectors are N-tuples of MadicInt sharing one (m, n); Heisenberg points
build them only as views.  The submodule chain is (m^j Z)^N, so membership
is a valuation test.  Bilinear-form coefficients are plain integers: one
matrix reduces into every modulus and precision, and eval_ints is the
integer-level B(x, y) of the group law.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import madic
from .errors import DomainError, ModulusMismatch, RankMismatch
from .madic import MadicInt, ValuationResult


@dataclass(frozen=True)
class ModuleVec:
    coords: tuple[MadicInt, ...]

    def __post_init__(self):
        if not self.coords:
            raise DomainError("rank must be >= 1")
        m, n = self.coords[0].m, self.coords[0].n
        if any(c.m != m or c.n != n for c in self.coords):
            raise ModulusMismatch("coordinates must share one modulus and precision")

    @classmethod
    def from_integers(cls, values, m: int, n: int) -> "ModuleVec":
        return cls(tuple(madic.from_integer(v, m, n) for v in values))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def m(self) -> int:
        return self.coords[0].m

    @property
    def n(self) -> int:
        return self.coords[0].n

    def values(self) -> tuple[int, ...]:
        return tuple(c.value for c in self.coords)

    def __add__(self, other: "ModuleVec") -> "ModuleVec":
        if self.rank != other.rank:
            raise RankMismatch(f"ranks {self.rank} and {other.rank}")
        return ModuleVec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ModuleVec") -> "ModuleVec":
        return self + (-other)

    def __neg__(self) -> "ModuleVec":
        return ModuleVec(tuple(-c for c in self.coords))

    def scale(self, r: int) -> "ModuleVec":
        return ModuleVec(tuple(madic.scale(r, c) for c in self.coords))

    def truncate(self, j: int) -> "ModuleVec":
        return ModuleVec(tuple(madic.truncate(c, j) for c in self.coords))

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    @classmethod
    def from_json(cls, obj) -> "ModuleVec":
        return cls(tuple(MadicInt.from_json(c) for c in obj))


@dataclass(frozen=True)
class BilinearForm:
    """B(x, y) = sum b[p][q] x_p y_q with integer coefficients."""

    b: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.b or any(len(row) != len(self.b) for row in self.b):
            raise RankMismatch("coefficient matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows) -> "BilinearForm":
        return cls(tuple(tuple(operator.index(v) for v in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.b)

    def eval_ints(self, xs, ys) -> int:
        """The double sum over plain integers of rank-length xs and ys, unreduced."""
        return sum(map(operator.mul, xs, [sum(map(operator.mul, row, ys)) for row in self.b]))

    def to_json(self) -> dict:
        return {"N": self.rank, "b": [list(row) for row in self.b]}

    @classmethod
    def from_json(cls, obj: dict) -> "BilinearForm":
        form = cls.from_rows(obj["b"])
        if "N" in obj and obj["N"] != form.rank:
            raise RankMismatch(f"declared rank {obj['N']} != matrix rank {form.rank}")
        return form


def bilinear_eval(form: BilinearForm, x: ModuleVec, y: ModuleVec) -> MadicInt:
    if form.rank != x.rank or form.rank != y.rank:
        raise RankMismatch(f"form rank {form.rank}, vectors {x.rank} and {y.rank}")
    if x.m != y.m:
        raise ModulusMismatch(f"moduli {x.m} and {y.m}")
    m, n = x.m, min(x.n, y.n)
    return madic.from_integer(form.eval_ints(x.values(), y.values()), m, n)


def module_valuation(x: ModuleVec) -> ValuationResult:
    """Minimum of the coordinate valuations; x lies in the level-j
    submodule iff this is >= j."""
    best: ValuationResult | None = None
    for c in x.coords:
        v = madic.valuation(c)
        if v.is_exact and (best is None or not best.is_exact or v.bound < best.bound):
            best = v
    return best if best is not None else ValuationResult.at_least(x.n)


def apply_linear(rows, x: ModuleVec) -> ModuleVec:
    """Integer-matrix map; commutes with truncation (the induced level map)."""
    matrix = [tuple(operator.index(v) for v in row) for row in rows]
    if not matrix or any(len(row) != x.rank for row in matrix):
        raise RankMismatch(f"matrix columns must equal vector rank {x.rank}")
    vals = x.values()
    return ModuleVec.from_integers(
        [sum(r * v for r, v in zip(row, vals)) for row in matrix], x.m, x.n
    )
