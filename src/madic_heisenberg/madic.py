"""Exact arithmetic in the m-adic completion of Z at finite precision.

An element is one residue mod m**n; the residues it induces at shallower
levels form a coherent sequence automatically.  All operations are exact;
binary operations work at the minimum of the operand precisions.
Composite m is fully supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index as _index

from .errors import (
    DomainError,
    IncoherentSequence,
    ModulusMismatch,
    NotAUnit,
    NotTopologicallyNilpotent,
    PrecisionExceeded,
)


@dataclass(frozen=True)
class ValuationResult:
    """Valuation at finite precision: Exact(j), or AtLeast(n) for the
    zero residue, which only bounds the valuation from below."""

    bound: int
    is_exact: bool

    @classmethod
    def exact(cls, j: int) -> "ValuationResult":
        return cls(bound=j, is_exact=True)

    @classmethod
    def at_least(cls, n: int) -> "ValuationResult":
        return cls(bound=n, is_exact=False)

    def __str__(self) -> str:
        return f"Exact({self.bound})" if self.is_exact else f"AtLeast({self.bound})"


def parse_int(v) -> int:
    """An int, or a decimal string as to_json writes; TypeError on floats and bools."""
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v) if isinstance(v, str) else _index(v)


@dataclass(frozen=True)
class MadicInt:
    m: int
    n: int
    value: int

    def __post_init__(self):
        _index(self.m), _index(self.n), _index(self.value)  # TypeError on non-integers
        if self.m < 2:
            raise DomainError(f"modulus must be >= 2, got {self.m}")
        if self.n < 1:
            raise DomainError(f"precision must be >= 1, got {self.n}")
        if not (0 <= self.value < self.m ** self.n):
            raise DomainError(f"value {self.value} not reduced mod {self.m}^{self.n}")

    @property
    def modulus_power(self) -> int:
        return self.m ** self.n

    def __str__(self) -> str:
        return f"{self.value} mod {self.m}^{self.n}"

    def __add__(self, other: "MadicInt") -> "MadicInt":
        return add(self, other)

    def __sub__(self, other: "MadicInt") -> "MadicInt":
        return add(self, neg(other))

    def __neg__(self) -> "MadicInt":
        return neg(self)

    def __mul__(self, other: "MadicInt") -> "MadicInt":
        return mul(self, other)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "value": str(self.value)}

    @classmethod
    def from_json(cls, obj: dict) -> "MadicInt":
        if isinstance(obj["m"], bool) or isinstance(obj["n"], bool):
            raise TypeError(f"expected integers m and n, got {obj['m']!r}, {obj['n']!r}")
        return cls(m=obj["m"], n=obj["n"], value=parse_int(obj["value"]))


def from_integer(x: int, m: int, n: int) -> MadicInt:
    return MadicInt(m=m, n=n, value=_index(x) % m ** n)


def zero(m: int, n: int) -> MadicInt:
    return MadicInt(m=m, n=n, value=0)


def one(m: int, n: int) -> MadicInt:
    return MadicInt(m=m, n=n, value=1)


def truncate(x: MadicInt, j: int) -> MadicInt:
    """theta_{j,n}: reduce to absolute precision j <= n."""
    if not (1 <= j <= x.n):
        raise PrecisionExceeded(f"cannot truncate precision {x.n} to {j}")
    return MadicInt(m=x.m, n=j, value=x.value % x.m ** j)


def _common(x: MadicInt, y: MadicInt) -> tuple[int, int]:
    if x.m != y.m:
        raise ModulusMismatch(f"moduli {x.m} and {y.m}")
    return x.m, min(x.n, y.n)


def add(x: MadicInt, y: MadicInt) -> MadicInt:
    m, n = _common(x, y)
    return MadicInt(m=m, n=n, value=(x.value + y.value) % m ** n)


def neg(x: MadicInt) -> MadicInt:
    return MadicInt(m=x.m, n=x.n, value=(-x.value) % x.modulus_power)


def mul(x: MadicInt, y: MadicInt) -> MadicInt:
    m, n = _common(x, y)
    return MadicInt(m=m, n=n, value=(x.value * y.value) % m ** n)


def scale(r: int, x: MadicInt) -> MadicInt:
    """Multiplication by an ordinary integer."""
    return MadicInt(m=x.m, n=x.n, value=(r * x.value) % x.modulus_power)


def valuation(x: MadicInt) -> ValuationResult:
    """m-adic valuation of the stored residue.  The zero residue only
    certifies valuation >= precision."""
    if x.value == 0:
        return ValuationResult.at_least(x.n)
    v, rem = 0, x.value
    while rem % x.m == 0:
        v += 1
        rem //= x.m
    return ValuationResult.exact(v)


def invert_unit(u: MadicInt) -> MadicInt:
    """Inverse of a unit (gcd(value, m) = 1) by extended Euclid mod m^n."""
    if gcd(u.value, u.m) != 1:
        raise NotAUnit(f"{u} shares a factor with {u.m}")
    return MadicInt(m=u.m, n=u.n, value=pow(u.value, -1, u.modulus_power))


def geom_inverse_one_minus(x: MadicInt) -> MadicInt:
    """Inverse of 1 - x via the partial geometric sum sum_{j<=K} x^j.

    Requires x topologically nilpotent at this precision (valuation >= 1);
    K is the least count with x^(K+1) = 0 mod m^n, so (1-x)*s = 1 exactly.
    """
    v = valuation(x)
    if v.is_exact and v.bound == 0:
        raise NotTopologicallyNilpotent(f"{x} has valuation 0")
    if not v.is_exact:
        return one(x.m, x.n)
    k = -(-x.n // v.bound)  # ceil(n / val)
    mp = x.modulus_power
    acc, term = 0, 1
    for _ in range(k + 1):
        acc = (acc + term) % mp
        term = (term * x.value) % mp
    return MadicInt(m=x.m, n=x.n, value=acc)


def from_residues(m: int, residues) -> MadicInt:
    """Build an element from (level, residue) pairs, checking coherence
    under the truncation maps.  Levels must be strictly increasing."""
    pairs = [(parse_int(j), parse_int(r)) for j, r in residues]
    if not pairs:
        raise DomainError("at least one residue is required")
    for (j, _), (l, _) in zip(pairs, pairs[1:]):
        if l <= j:
            raise DomainError("levels must be strictly increasing")
    for j, r in pairs:
        if j < 1 or not (0 <= r < m ** j):
            raise DomainError(f"residue {r} not reduced mod {m}^{j}")
    for (j, rj), (l, rl) in zip(pairs, pairs[1:]):
        if rl % m ** j != rj:
            raise IncoherentSequence(j, l)
    top_level, top_residue = pairs[-1]
    return MadicInt(m=m, n=top_level, value=top_residue)
