"""Rings and modules of fractions over Z and Z/kZ.

A multiplicative set S gives the ring S^-1 R of formal fractions a/s with
equality a/s = b/t iff (a t - b s) v = 0 for some v in S.  Over Z this
collapses to cross-multiplication; over Z/kZ the finite closure of S is
searched, so zero divisors are handled honestly.  Fractions are kept
unreduced: equality is always the congruence oracle, never normal forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction as Rational

from .errors import (
    ContextMismatch,
    DomainError,
    NotInMultiplicativeSet,
    RankMismatch,
)
from .hmodule import BilinearForm
from .madic import parse_int


@dataclass(frozen=True)
class BaseRing:
    """Z, or Z/kZ with least nonnegative residues."""

    kind: str  # "Z" | "Zmod"
    k: int | None = None

    @classmethod
    def integers(cls) -> "BaseRing":
        return cls(kind="Z")

    @classmethod
    def integers_mod(cls, k: int) -> "BaseRing":
        if k < 2:
            raise DomainError(f"modulus must be >= 2, got {k}")
        return cls(kind="Zmod", k=k)

    @property
    def is_domain(self) -> bool:
        return self.kind == "Z"

    def reduce(self, v: int) -> int:
        """Residue of an int or a decimal string; TypeError on floats and bools."""
        v = parse_int(v)
        return v if self.kind == "Z" else v % self.k

    def is_zero(self, v: int) -> bool:
        return self.reduce(v) == 0

    def label(self) -> str:
        return "Z" if self.kind == "Z" else f"Z/{self.k}"

    @classmethod
    def from_label(cls, s: str) -> "BaseRing":
        if s == "Z":
            return cls.integers()
        if s.startswith("Z/"):
            return cls.integers_mod(int(s[2:]))
        raise DomainError(f"unknown ring label {s!r}")


@lru_cache
def _finite_closure(k: int, gens: tuple[int, ...]) -> frozenset:
    """Multiplicative closure of gens with 1 inside Z/kZ (fixpoint)."""
    closure = {1} | {g % k for g in gens}
    frontier = set(closure)
    while frontier:
        new = {(a * b) % k for a in frontier for b in closure} - closure
        closure |= new
        frontier = new
    return frozenset(closure)


def _generated_member_z(v: int, gens: tuple[int, ...]) -> bool:
    """Is v a finite product of gens over Z?  Factor removal with a seen
    set; terminates because magnitudes shrink except for one -1 flip."""
    gens = tuple(set(gens))
    stack, seen = [v], set()
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if t == 1 or t in gens:
            return True
        for g in gens:
            if g == 0:
                continue
            if g == -1:
                stack.append(-t)
            elif g != 1 and t % g == 0:
                stack.append(t // g)
    return False


@dataclass(frozen=True)
class MultSet:
    """Multiplicative subset of a base ring, with decidable membership.

    Generated: all finite products of the generators, including the empty
    product 1.  OnePlusIdeal(m): the residue class 1 mod m inside Z.
    """

    ring: BaseRing
    kind: str  # "generated" | "one_plus_ideal"
    gens: tuple[int, ...] = ()
    m: int | None = None

    @classmethod
    def generated(cls, ring: BaseRing, gens) -> "MultSet":
        return cls(ring=ring, kind="generated",
                   gens=tuple(ring.reduce(g) for g in gens))

    @classmethod
    def one_plus_ideal(cls, m: int) -> "MultSet":
        # only over Z: over Z/kZ the class 1 mod m need not be closed
        if operator.index(m) < 2:
            raise DomainError(f"ideal modulus must be >= 2, got {m}")
        return cls(ring=BaseRing.integers(), kind="one_plus_ideal", m=m)

    def contains(self, v: int) -> bool:
        v = self.ring.reduce(v)
        if self.kind == "one_plus_ideal":
            return v % self.m == 1
        if self.ring.is_domain:
            return _generated_member_z(v, self.gens)
        return v in self.closure()

    def closure(self) -> frozenset:
        """All elements of S; finite, so only available over Z/kZ."""
        if self.ring.is_domain:
            raise DomainError("S is infinite over Z; use contains()")
        return _finite_closure(self.ring.k, self.gens)

    def has_zero(self) -> bool:
        """0 in S makes the whole fraction ring collapse to {0}."""
        if self.kind == "one_plus_ideal":
            return False
        if self.ring.is_domain:
            return 0 in self.gens
        return 0 in self.closure()

    def to_json(self) -> dict:
        if self.kind == "generated":
            return {"kind": "generated", "gens": list(self.gens)}
        return {"kind": "one_plus_ideal", "m": self.m}

    @classmethod
    def from_json(cls, ring: BaseRing, obj: dict) -> "MultSet":
        if obj["kind"] == "generated":
            return cls.generated(ring, obj["gens"])
        if obj["kind"] == "one_plus_ideal":
            if not ring.is_domain:
                raise DomainError("one_plus_ideal sets are supported over Z only")
            return cls.one_plus_ideal(obj["m"])
        raise DomainError(f"unknown multiplicative-set kind {obj['kind']!r}")


def _same_context(a: "Fraction", b: "Fraction"):
    if a.ring != b.ring or a.mult_set != b.mult_set:
        raise ContextMismatch("fractions belong to different localizations")


@dataclass(frozen=True, eq=False)
class Fraction:
    """Formal fraction num/den, unreduced.  Equality is the quotient
    relation, so equal fractions may differ representationally; the class
    is deliberately unhashable."""

    ring: BaseRing
    mult_set: MultSet
    num: int
    den: int

    def __post_init__(self):
        if self.mult_set.ring != self.ring:
            raise ContextMismatch("multiplicative set lives in a different ring")
        object.__setattr__(self, "num", self.ring.reduce(self.num))
        object.__setattr__(self, "den", self.ring.reduce(self.den))
        if not self.mult_set.contains(self.den):
            raise NotInMultiplicativeSet(f"denominator {self.den} is not in S")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fraction):
            return NotImplemented
        return frac_equal(self, other)

    __hash__ = None

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.label(),
            "S": self.mult_set.to_json(),
            "num": str(self.num),
            "den": str(self.den),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Fraction":
        ring = BaseRing.from_label(obj["ring"])
        return cls(ring=ring, mult_set=MultSet.from_json(ring, obj["S"]),
                   num=obj["num"], den=obj["den"])


def frac_equal(a: Fraction, b: Fraction) -> bool:
    """a/s = b/t iff (a t - b s) v = 0 for some v in S."""
    _same_context(a, b)
    if a.mult_set.has_zero():
        return True  # S^-1 R = {0}
    cross = a.num * b.den - b.num * a.den
    if a.ring.is_domain:
        return cross == 0  # no zero divisors, v cancels
    k = a.ring.k
    return any((cross * v) % k == 0 for v in a.mult_set.closure())


def frac_add(a: Fraction, b: Fraction) -> Fraction:
    _same_context(a, b)
    return Fraction(ring=a.ring, mult_set=a.mult_set,
                    num=a.num * b.den + b.num * a.den, den=a.den * b.den)


def frac_mul(a: Fraction, b: Fraction) -> Fraction:
    _same_context(a, b)
    return Fraction(ring=a.ring, mult_set=a.mult_set,
                    num=a.num * b.num, den=a.den * b.den)


def frac_neg(a: Fraction) -> Fraction:
    return Fraction(ring=a.ring, mult_set=a.mult_set, num=-a.num, den=a.den)


def canonical_hom(a: int, S: MultSet) -> Fraction:
    """f(a) = a/1 into the localization."""
    return Fraction(ring=S.ring, mult_set=S, num=a, den=1)


def kernel_witness(a: int, S: MultSet) -> int | None:
    """Some s in S with a s = 0, or None; f(a) = 0 iff a witness exists."""
    a = S.ring.reduce(a)
    if S.has_zero():
        return 0
    if S.ring.is_domain:
        return 1 if a == 0 else None
    k = S.ring.k
    for s in sorted(S.closure()):
        if (a * s) % k == 0:
            return s
    return None


# modules of fractions (over Z, 0 not in S) --------------------------------


def _check_module_set(S: MultSet):
    if not S.ring.is_domain:
        raise DomainError("module fractions are supported over Z only")
    if S.has_zero():
        raise DomainError("module fractions need 0 not in S")


@dataclass(frozen=True, eq=False)
class ModuleFraction:
    """x/s with x an integer vector; equality by coordinatewise
    cross-multiplication (valid over Z with 0 not in S)."""

    mult_set: MultSet
    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        _check_module_set(self.mult_set)
        object.__setattr__(self, "num", tuple(self.mult_set.ring.reduce(v) for v in self.num))
        if not self.mult_set.contains(self.den):
            raise NotInMultiplicativeSet(f"denominator {self.den} is not in S")

    @property
    def rank(self) -> int:
        return len(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleFraction):
            return NotImplemented
        return module_frac_equal(self, other)

    __hash__ = None

    def to_json(self) -> dict:
        return {"S": self.mult_set.to_json(),
                "num": [str(v) for v in self.num], "den": str(self.den)}


def module_frac_equal(a: ModuleFraction, b: ModuleFraction) -> bool:
    if a.mult_set != b.mult_set:
        raise ContextMismatch("module fractions over different localizations")
    if a.rank != b.rank:
        raise RankMismatch(f"ranks {a.rank} and {b.rank}")
    return all(b.den * x == a.den * y for x, y in zip(a.num, b.num))


def module_frac_add(a: ModuleFraction, b: ModuleFraction) -> ModuleFraction:
    if a.rank != b.rank:
        raise RankMismatch(f"ranks {a.rank} and {b.rank}")
    num = tuple(b.den * x + a.den * y for x, y in zip(a.num, b.num))
    return ModuleFraction(mult_set=a.mult_set, num=num, den=a.den * b.den)


def module_frac_scale(r: Fraction, x: ModuleFraction) -> ModuleFraction:
    """Scalar action of S^-1 Z on the module of fractions."""
    return ModuleFraction(mult_set=x.mult_set,
                          num=tuple(r.num * v for v in x.num),
                          den=r.den * x.den)


# Heisenberg group over the ring of fractions ------------------------------


@dataclass(frozen=True, eq=False)
class FracHPoint:
    x: ModuleFraction
    s: Fraction

    def __post_init__(self):
        if self.x.mult_set != self.s.mult_set:
            raise ContextMismatch("coordinates over different localizations")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracHPoint):
            return NotImplemented
        return frac_hpoint_equal(self, other)

    __hash__ = None

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "s": self.s.to_json()}


def frac_hpoint_equal(g: FracHPoint, h: FracHPoint) -> bool:
    return module_frac_equal(g.x, h.x) and frac_equal(g.s, h.s)


def frac_bilinear(form: BilinearForm, x: ModuleFraction,
                  y: ModuleFraction) -> Fraction:
    """(S^-1 B)(x/s, y/t) = B(x, y) / (s t)."""
    if form.rank != x.rank or form.rank != y.rank:
        raise RankMismatch(f"form rank {form.rank}, vectors {x.rank} and {y.rank}")
    return Fraction(ring=x.mult_set.ring, mult_set=x.mult_set,
                    num=form.eval_ints(x.num, y.num), den=x.den * y.den)


def frac_heis_mul(form: BilinearForm, g: FracHPoint, h: FracHPoint) -> FracHPoint:
    return FracHPoint(x=module_frac_add(g.x, h.x),
                      s=frac_add(frac_add(g.s, h.s), frac_bilinear(form, g.x, h.x)))


def frac_heis_inv(form: BilinearForm, g: FracHPoint) -> FracHPoint:
    neg_x = ModuleFraction(mult_set=g.x.mult_set,
                           num=tuple(-v for v in g.x.num), den=g.x.den)
    return FracHPoint(x=neg_x, s=frac_add(frac_neg(g.s), frac_bilinear(form, g.x, g.x)))


def frac_heis_dilate(r: Fraction, g: FracHPoint) -> FracHPoint:
    """delta_r(x, s) = (r x, r^2 s) with r a fraction scalar."""
    return FracHPoint(x=module_frac_scale(r, g.x),
                      s=frac_mul(frac_mul(r, r), g.s))


def heis_frac_hom(xs, s: int, S: MultSet) -> FracHPoint:
    """The canonical homomorphism (x, s) -> (x/1, s/1) into the
    Heisenberg group over S^-1 Z."""
    _check_module_set(S)
    return FracHPoint(x=ModuleFraction(mult_set=S, num=tuple(xs), den=1),
                      s=canonical_hom(s, S))


def frac_to_rational(a: Fraction) -> Rational:
    """Exact-rational image; only meaningful over Z with 0 not in S."""
    if not a.ring.is_domain:
        raise DomainError("rational embedding is defined over Z only")
    return Rational(a.num, a.den)
