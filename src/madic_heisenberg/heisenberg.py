"""The Heisenberg group over the m-adic completion and its chain geometry.

Elements are pairs (x, s) with x a vector and s a central scalar, under
(x, s) <> (y, t) = (x + y, s + t + B(x, y)).  Two chain families are
supported: H_j (vector and central coordinates both at depth j; normal)
and G_j (central depth 2j; compatible with dilations, generally not
normal).  Normality checks in the finite quotient G/H_L are closed forms
in A = B - B^T and certify only the image there; the reports say so.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import madic
from .errors import (
    ContextMismatch,
    DomainError,
    LevelTooShallow,
    PrecisionExceeded,
)
from .hmodule import BilinearForm, ModuleVec, bilinear_eval
from .madic import MadicInt
from .tower import DEFAULT_PROFILE, RadiusProfile


class ChainFamily(Enum):
    H = "H"
    G = "G"

    @property
    def central_exponent(self) -> int:
        """Depth multiplier for the central coordinate at level j."""
        return 1 if self is ChainFamily.H else 2


@dataclass(frozen=True)
class HPoint:
    x: ModuleVec
    s: MadicInt

    def __post_init__(self):
        if self.x.m != self.s.m or self.x.n != self.s.n:
            raise ContextMismatch("vector and central coordinates disagree on (m, n)")

    def values(self) -> tuple[tuple[int, ...], int]:
        return self.x.values(), self.s.value

    def to_json(self) -> dict:
        return {"x": list(self.x.values()), "s": self.s.value, "m": self.s.m, "n": self.s.n}


@dataclass(frozen=True)
class GroupDistance:
    """Left-invariant distance at finite precision.

    exact means the valuation was determined below the precision cap; an
    inexact result only certifies valuation >= the reported value, and its
    radius is 0 when the displacement is trivial to full precision.
    """

    valuation: int
    radius: Fraction
    exact: bool


@dataclass(frozen=True)
class NormalityReport:
    normal: bool
    family: ChainFamily
    j: int
    quotient_level: int
    witness: tuple[HPoint, HPoint] | None
    certificate_scope: str

    def to_json(self) -> dict:
        out = {
            "verdict": "Normal" if self.normal else "NotNormal",
            "family": self.family.value,
            "j": self.j,
            "level": self.quotient_level,
            "certificate_scope": self.certificate_scope,
        }
        if self.witness is not None:
            a, h = self.witness
            out["witness"] = {"a": a.to_json(), "h": h.to_json()}
        else:
            out["witness"] = None
        return out


@dataclass(frozen=True)
class WeakNormalityReport:
    found: bool
    level: int | None
    family: ChainFamily
    j: int
    depth: int
    quotient_level: int

    def to_json(self) -> dict:
        return {
            "verdict": "FoundLevel" if self.found else "NotFoundUpToDepth",
            "level": self.level,
            "family": self.family.value,
            "j": self.j,
            "depth": self.depth,
            "quotient_level": self.quotient_level,
        }


@dataclass(frozen=True)
class HeisenbergContext:
    """Fixes one group: modulus, rank, bilinear form, radius profile,
    working precision.  All elements built through a context share them."""

    m: int
    rank: int
    form: BilinearForm
    precision: int
    profile: RadiusProfile = DEFAULT_PROFILE

    def __post_init__(self):
        for v in (self.m, self.rank, self.precision):
            operator.index(v)  # TypeError on non-integers
        if self.form.rank != self.rank:
            raise ContextMismatch(f"form rank {self.form.rank} != context rank {self.rank}")
        if self.m < 2 or self.precision < 1:
            raise DomainError("need modulus >= 2 and precision >= 1")

    def point(self, xs, s: int) -> HPoint:
        if len(tuple(xs)) != self.rank:
            raise ContextMismatch(f"expected {self.rank} vector coordinates")
        return HPoint(
            x=ModuleVec.from_integers(xs, self.m, self.precision),
            s=madic.from_integer(s, self.m, self.precision),
        )

    def identity(self) -> HPoint:
        return self.point((0,) * self.rank, 0)

    def at_precision(self, j: int) -> "HeisenbergContext":
        if not (1 <= j <= self.precision):
            raise PrecisionExceeded(f"precision {j} outside 1..{self.precision}")
        return HeisenbergContext(m=self.m, rank=self.rank, form=self.form,
                                 precision=j, profile=self.profile)

    def _check(self, *points: HPoint):
        for g in points:
            if g.x.rank != self.rank or g.x.m != self.m or g.x.n != self.precision:
                raise ContextMismatch(f"point {g} does not belong to this context")

    # group law ------------------------------------------------------------

    def mul(self, g: HPoint, h: HPoint) -> HPoint:
        self._check(g, h)
        return HPoint(x=g.x + h.x, s=g.s + h.s + bilinear_eval(self.form, g.x, h.x))

    def inv(self, g: HPoint) -> HPoint:
        self._check(g)
        return HPoint(x=-g.x, s=-g.s + bilinear_eval(self.form, g.x, g.x))

    def conjugate(self, g: HPoint, h: HPoint) -> HPoint:
        """(g <> h) <> g^-1, checked against the closed form
        (y, t + B(x, y) - B(y, x))."""
        self._check(g, h)
        direct = self.mul(self.mul(g, h), self.inv(g))
        skew = bilinear_eval(self.form, g.x, h.x) - bilinear_eval(self.form, h.x, g.x)
        if direct != HPoint(x=h.x, s=h.s + skew):
            raise AssertionError("conjugation closed form violated")
        return direct

    def dilate(self, r: int, g: HPoint) -> HPoint:
        self._check(g)
        return HPoint(x=g.x.scale(r), s=madic.scale(r * r, g.s))

    # chains ---------------------------------------------------------------

    def chain_member(self, g: HPoint, family: ChainFamily, j: int) -> bool | None:
        """Membership of g in the level-j subgroup; None when the required
        depth exceeds the precision (inconclusive at this precision)."""
        self._check(g)
        if j < 0:
            raise DomainError("chain level must be nonnegative")
        if family.central_exponent * j > self.precision:
            return None
        return self._member_mod(g, family, j)

    def _membership_cap(self, family: ChainFamily) -> int:
        return self.precision // family.central_exponent

    def group_distance(self, g: HPoint, h: HPoint,
                       family: ChainFamily = ChainFamily.H) -> GroupDistance:
        """d(g, h) = rho(h^-1 <> g) with rho from the family chain.

        The valuation is capped at the deepest level decidable at this
        precision; hitting the cap yields an inexact (lower bound) result.
        """
        self._check(g, h)
        z = self.mul(self.inv(h), g)
        cap = self._membership_cap(family)
        depth = 0
        while depth < cap and self.chain_member(z, family, depth + 1):
            depth += 1
        if depth == cap:
            trivial = all(v == 0 for v in z.x.values()) and z.s.value == 0
            radius = Fraction(0) if trivial else self.profile.radius(cap)
            return GroupDistance(valuation=cap, radius=radius, exact=False)
        return GroupDistance(valuation=depth, radius=self.profile.radius(depth), exact=True)

    # finite quotients -----------------------------------------------------

    def _level_guard(self, family: ChainFamily, level: int) -> int:
        """Central exponent c, after checking 0 <= c*level <= precision."""
        c = family.central_exponent
        if level < 0:
            raise DomainError("level must be nonnegative")
        if c * level > self.precision:
            raise PrecisionExceeded(f"level {level} needs precision >= {c * level}")
        return c

    def coset_digits(self, family: ChainFamily, level: int):
        """Canonical digit keys of the cosets of the level subgroup, in
        lexicographic order: vector digits below m^level, central digit
        below m^(c*level).  Each key is its own coset_key."""
        c = self._level_guard(family, level)
        return ((xs, s) for xs in itertools.product(range(self.m ** level), repeat=self.rank)
                for s in range(self.m ** (c * level)))

    def coset_key(self, g: HPoint, family: ChainFamily, level: int):
        """Canonical digits of the left coset of g at the given level:
        vector digits below m^level, central digit below m^(c*level)."""
        self._check(g)
        c = self._level_guard(family, level)
        ml = self.m ** level
        mcl = self.m ** (c * level)
        xs = g.x.values()
        x0 = tuple(v % ml for v in xs)
        correction = self.form.eval_ints(x0, tuple(a - b for a, b in zip(x0, xs)))
        s0 = (g.s.value + correction) % mcl
        return (x0, s0)

    def project(self, g: HPoint, j: int) -> HPoint:
        """Quotient projection with kernel H_j, realized as truncation to
        precision j; operate on the result through at_precision(j)."""
        self._check(g)
        if not (1 <= j <= self.precision):
            raise PrecisionExceeded(f"level {j} outside 1..{self.precision}")
        return HPoint(x=g.x.truncate(j), s=madic.truncate(g.s, j))

    def _quotient_reps(self, level: int):
        """Canonical representatives of G/H_level, lexicographic in digits."""
        return (self.point(xs, s) for xs, s in self.coset_digits(ChainFamily.H, level))

    def _member_mod(self, g: HPoint, family: ChainFamily, j: int) -> bool:
        """Membership of the coset g*H_L in the image of the level-j
        subgroup, which reduces to plain digit divisibility."""
        c = family.central_exponent
        mj = self.m ** j
        mcj = self.m ** (c * j)
        return all(v % mj == 0 for v in g.x.values()) and g.s.value % mcj == 0

    def _quotient_guard(self, family: ChainFamily, quotient_level: int, *levels: int):
        """Reject negative levels, chain levels G/H_L cannot see, and L > precision."""
        if min(quotient_level, *levels) < 0:
            raise DomainError("levels must be nonnegative")
        if family.central_exponent * max(levels) > quotient_level:
            raise LevelTooShallow(f"level {quotient_level} cannot see family-"
                                  f"{family.value} levels up to {max(levels)}")
        if quotient_level > self.precision:
            raise PrecisionExceeded(
                f"quotient level {quotient_level} > precision {self.precision}"
            )

    def check_normality(self, family: ChainFamily, j: int,
                        quotient_level: int) -> NormalityReport:
        """Conjugation adds x^T A y to the centre: H_j is always normal, G_j iff
        m^j divides every entry of A.  Else the first escaping pair in canonical
        order is (e_p, 0), (m^j e_q, 0) for the last entry (p, q) of A off m^j,
        replayed here.  A Normal verdict certifies the image in G/H_L only."""
        self._quotient_guard(family, quotient_level, j)
        scope = f"image in G/H_{quotient_level} only (finite-quotient certificate)"
        mj, b = self.m ** j, self.form.b
        escapes = [(p, q) for p in range(self.rank) for q in range(self.rank)
                   if (b[p][q] - b[q][p]) % mj]
        if family is ChainFamily.H or not escapes:
            return NormalityReport(True, family, j, quotient_level, None, scope)
        p, q = escapes[-1]
        a = self.point([int(i == p) for i in range(self.rank)], 0)
        h = self.point([mj * (i == q) for i in range(self.rank)], 0)
        if self._member_mod(self.conjugate(a, h), family, j):
            raise AssertionError("normality witness does not escape")
        return NormalityReport(False, family, j, quotient_level, (a, h), scope)

    def check_weak_normality(self, family: ChainFamily, a: HPoint, j: int,
                             depth: int, quotient_level: int) -> WeakNormalityReport:
        """Least l <= depth with family_l inside a^-1 <> family_j <> a in G/H_L:
        the least l >= j with m^max(c*j - l, 0) dividing x^T A, for a = (x, s)."""
        self._check(a)
        self._quotient_guard(family, quotient_level, j, depth)
        xs, b, c = a.x.values(), self.form.b, family.central_exponent
        row = [sum(x * (b[p][q] - b[q][p]) for p, x in enumerate(xs))
               for q in range(self.rank)]
        for l in range(j, depth + 1):
            if all(v % self.m ** max(c * j - l, 0) == 0 for v in row):
                return WeakNormalityReport(True, l, family, j, depth, quotient_level)
        return WeakNormalityReport(False, None, family, j, depth, quotient_level)
