"""The Heisenberg group over the m-adic completion and its chain geometry.

Elements are pairs (x, s) with x a vector and s a central scalar, under
(x, s) <> (y, t) = (x + y, s + t + B(x, y)), stored as integer residues
mod m^n with MadicInt and ModuleVec views on request.  Two chain families
are supported: H_j (vector and central coordinates both at depth j;
normal) and G_j (central depth 2j; compatible with dilations, generally
not normal).  Normality checks in the finite quotient G/H_L are closed
forms in A = B - B^T and certify only the image there; the reports say so.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (
    ContextMismatch,
    DomainError,
    LevelTooShallow,
    PrecisionExceeded,
)
from .hmodule import BilinearForm, ModuleVec
from .madic import MadicInt
from .tower import DEFAULT_PROFILE, RadiusProfile


class ChainFamily(Enum):
    H = "H"
    G = "G"

    @property
    def central_exponent(self) -> int:
        """Depth multiplier for the central coordinate at level j."""
        return 1 if self is ChainFamily.H else 2


_tuple_new = tuple.__new__


class HPoint(tuple):
    """A point (x, s) at precision n as the immutable tuple (xs, z, m, n) of
    vector residues xs and central residue z mod m^n; equality and hashing
    are the tuple's.  .x and .s are ModuleVec and MadicInt views built on
    request, and HPoint(x=..., s=...) builds a point from such views."""

    __slots__ = ()
    xs = property(operator.itemgetter(0))
    z = property(operator.itemgetter(1))
    m = property(operator.itemgetter(2))
    n = property(operator.itemgetter(3))

    def __new__(cls, x: ModuleVec, s: MadicInt):
        if x.m != s.m or x.n != s.n:
            raise ContextMismatch("vector and central coordinates disagree on (m, n)")
        return _tuple_new(cls, (x.values(), s.value, s.m, s.n))

    def __getnewargs__(self):
        return self.x, self.s

    @property
    def x(self) -> ModuleVec:
        return ModuleVec.from_integers(self.xs, self.m, self.n)

    @property
    def s(self) -> MadicInt:
        return MadicInt(self.m, self.n, self.z)

    def values(self) -> tuple[tuple[int, ...], int]:
        return self.xs, self.z

    def to_json(self) -> dict:
        return {"x": list(self.xs), "s": self.z, "m": self.m, "n": self.n}


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
    working precision and M = m**precision.  Every operation works on the
    residues mod M and rejects points of another (m, precision, rank)."""

    m: int
    rank: int
    form: BilinearForm
    precision: int
    profile: RadiusProfile = DEFAULT_PROFILE
    M: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in (self.m, self.rank, self.precision):
            operator.index(v)  # TypeError on non-integers
        if self.form.rank != self.rank:
            raise ContextMismatch(f"form rank {self.form.rank} != context rank {self.rank}")
        if self.m < 2 or self.precision < 1:
            raise DomainError("need modulus >= 2 and precision >= 1")
        object.__setattr__(self, "M", self.m ** self.precision)

    def _new(self, xs: tuple[int, ...], z: int) -> HPoint:
        """The point with these residues, which must already be reduced mod M."""
        return _tuple_new(HPoint, (xs, z, self.m, self.precision))

    def point(self, xs, s: int) -> HPoint:
        xs, M = tuple(xs), self.M
        if len(xs) != self.rank:
            raise ContextMismatch(f"expected {self.rank} vector coordinates")
        return self._new(tuple([operator.index(v) % M for v in xs]), operator.index(s) % M)

    def identity(self) -> HPoint:
        return self._new((0,) * self.rank, 0)

    def at_precision(self, j: int) -> "HeisenbergContext":
        if not (1 <= j <= self.precision):
            raise PrecisionExceeded(f"precision {j} outside 1..{self.precision}")
        return HeisenbergContext(m=self.m, rank=self.rank, form=self.form,
                                 precision=j, profile=self.profile)

    def _check(self, *points: HPoint):
        for g in points:
            if g.m != self.m or g.n != self.precision or len(g.xs) != self.rank:
                raise ContextMismatch(f"point {g} does not belong to this context")

    # group law ------------------------------------------------------------

    def _law(self, g, h) -> tuple[tuple[int, ...], int]:
        """Residues of g <> h from the (xs, s) pairs leading g and h, which
        may be points or coset digit keys; no context check."""
        M, x, y = self.M, g[0], h[0]
        return (tuple([(a + b) % M for a, b in zip(x, y)]),
                (g[1] + h[1] + self.form.eval_ints(x, y)) % M)

    def mul(self, g: HPoint, h: HPoint) -> HPoint:
        self._check(g, h)
        return self._new(*self._law(g, h))

    def inv(self, g: HPoint) -> HPoint:
        self._check(g)
        M, x = self.M, g.xs
        return self._new(tuple([-a % M for a in x]), (self.form.eval_ints(x, x) - g.z) % M)

    def conjugate(self, g: HPoint, h: HPoint) -> HPoint:
        """(g <> h) <> g^-1, checked against the closed form
        (y, t + B(x, y) - B(y, x))."""
        self._check(g, h)
        direct = self.mul(self.mul(g, h), self.inv(g))
        x, y, b = g.xs, h.xs, self.form.eval_ints
        if direct != self._new(y, (h.z + b(x, y) - b(y, x)) % self.M):
            raise AssertionError("conjugation closed form violated")
        return direct

    def dilate(self, r: int, g: HPoint) -> HPoint:
        self._check(g)
        r, M = operator.index(r), self.M
        return self._new(tuple([r * a % M for a in g.xs]), r * r * g.z % M)

    # chains ---------------------------------------------------------------

    def chain_member(self, g: HPoint, family: ChainFamily, j: int) -> bool | None:
        """Membership of g in the level-j subgroup; None when the required
        depth exceeds the precision (inconclusive at this precision)."""
        self._check(g)
        if operator.index(j) < 0:
            raise DomainError("chain level must be nonnegative")
        if family.central_exponent * j > self.precision:
            return None
        return self._member_mod(g, family, j)

    def group_distance(self, g: HPoint, h: HPoint,
                       family: ChainFamily = ChainFamily.H) -> GroupDistance:
        """d(g, h) = rho(h^-1 <> g) with rho from the family chain.

        The valuation is capped at the deepest level decidable at this
        precision; hitting the cap yields an inexact (lower bound) result.
        """
        self._check(g, h)
        d = self.mul(self.inv(h), g)
        cap = self.precision // family.central_exponent
        depth = 0
        while depth < cap and self._member_mod(d, family, depth + 1):
            depth += 1
        if depth == cap:
            trivial = not any(d.xs) and d.z == 0
            radius = Fraction(0) if trivial else self.profile.radius(cap)
            return GroupDistance(valuation=cap, radius=radius, exact=False)
        return GroupDistance(valuation=depth, radius=self.profile.radius(depth), exact=True)

    # finite quotients -----------------------------------------------------

    def _level_guard(self, family: ChainFamily, level: int) -> int:
        """Central exponent c, after checking an integer level, 0 <= c*level <= precision."""
        c = family.central_exponent
        if operator.index(level) < 0:
            raise DomainError("level must be nonnegative")
        if c * level > self.precision:
            raise PrecisionExceeded(f"level {level} needs precision >= {c * level}")
        return c

    def coset_rows(self, family: ChainFamily, level: int):
        """The canonical digit keys of coset_digits as rows: an iterator over
        the vector digits xs below m^level in lexicographic order, and the
        width m^(c*level) of each row, the number of central digits s."""
        c = self._level_guard(family, level)
        return (itertools.product(range(self.m ** level), repeat=self.rank),
                self.m ** (c * level))

    def coset_digits(self, family: ChainFamily, level: int):
        """Canonical digit keys ((x_1, ..., x_N), s) of the cosets of the
        level subgroup, in lexicographic order: the rows of coset_rows,
        flattened.  Each key is its own coset_key."""
        vectors, width = self.coset_rows(family, level)
        return ((xs, s) for xs in vectors for s in range(width))

    def _keyer(self, family: ChainFamily, level: int):
        """coset_key at this level, level-guarded once, as a function of the
        (xs, s) pair leading a point or digit key; no context check."""
        c = self._level_guard(family, level)
        ml, mcl, b = self.m ** level, self.m ** (c * level), self.form.eval_ints

        def key(g):
            xs = g[0]
            x0 = tuple([v % ml for v in xs])
            return x0, (g[1] + b(x0, tuple([a - v for a, v in zip(x0, xs)]))) % mcl
        return key

    def coset_key(self, g: HPoint, family: ChainFamily, level: int):
        """Canonical digits of the left coset of g at the given level:
        vector digits below m^level, central digit below m^(c*level)."""
        self._check(g)
        return self._keyer(family, level)(g)

    def project(self, g: HPoint, j: int) -> HPoint:
        """Quotient projection with kernel H_j, realized as truncation to
        precision j; operate on the result through at_precision(j)."""
        self._check(g)
        low = self.at_precision(j)
        return low._new(tuple([v % low.M for v in g.xs]), g.z % low.M)

    def _quotient_reps(self, level: int):
        """Canonical representatives of G/H_level, lexicographic in digits."""
        return (self._new(xs, s) for xs, s in self.coset_digits(ChainFamily.H, level))

    def _member_mod(self, g: HPoint, family: ChainFamily, j: int) -> bool:
        """Membership of the coset g*H_L in the image of the level-j
        subgroup, which reduces to plain digit divisibility."""
        mj = self.m ** j
        return all(v % mj == 0 for v in g.xs) and g.z % mj ** family.central_exponent == 0

    def _quotient_guard(self, family: ChainFamily, quotient_level: int, *levels: int):
        """Reject non-integer or negative levels, levels G/H_L cannot see, L > precision."""
        if min(map(operator.index, (quotient_level, *levels))) < 0:
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
        xs, b, c = a.xs, self.form.b, family.central_exponent
        row = [sum(x * (b[p][q] - b[q][p]) for p, x in enumerate(xs))
               for q in range(self.rank)]
        for l in range(j, depth + 1):
            if all(v % self.m ** max(c * j - l, 0) == 0 for v in row):
                return WeakNormalityReport(True, l, family, j, depth, quotient_level)
        return WeakNormalityReport(False, None, family, j, depth, quotient_level)
