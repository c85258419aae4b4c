"""Ultrametric geometry of ideal chains in Z.

A chain of subgroups m_0 Z >= m_1 Z >= ... turns Z into an ultrametric
space: the valuation of x is the deepest chain level containing x, and a
monotone radius profile converts valuations into exact rational distances.
Chains of different moduli can be compared for topological equivalence by
divisibility of their generators, up to an explicit depth bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidChain, InvalidProfile, LengthMismatch

INFINITY = math.inf

Valuation = Union[int, float]  # nonnegative int, or math.inf for zero


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


@dataclass(frozen=True)
class RadiusProfile:
    """Non-increasing positive rationals r_0 >= r_1 >= ... -> 0.

    kind "geometric": r_j = base**j.  kind "explicit": the listed values,
    continued geometrically from the last ratio past the end of the list.
    """

    kind: str
    base: Fraction | None = None
    values: tuple[Fraction, ...] | None = None

    @classmethod
    def geometric(cls, base) -> "RadiusProfile":
        base = Fraction(base)
        if not (0 < base < 1):
            raise InvalidProfile(f"geometric base must lie in (0, 1), got {base}")
        return cls(kind="geometric", base=base)

    @classmethod
    def explicit(cls, values) -> "RadiusProfile":
        vals = tuple(Fraction(v) for v in values)
        if len(vals) < 2:
            raise InvalidProfile("explicit profile needs at least two values to fix a tail ratio")
        if any(v <= 0 for v in vals):
            raise InvalidProfile("profile values must be positive")
        if any(vals[i + 1] > vals[i] for i in range(len(vals) - 1)):
            raise InvalidProfile("profile values must be non-increasing")
        if vals[-1] >= vals[-2]:
            raise InvalidProfile("tail ratio must be < 1 so the profile converges to 0")
        return cls(kind="explicit", values=vals)

    def radius(self, j: Valuation) -> Fraction:
        """r_j; by convention 0 at valuation +inf."""
        if j == INFINITY:
            return Fraction(0)
        j = operator.index(j)
        if j < 0:
            raise InvalidProfile("radius index must be nonnegative")
        if self.kind == "geometric":
            return self.base ** j
        if j < len(self.values):
            return self.values[j]
        ratio = self.values[-1] / self.values[-2]
        return self.values[-1] * ratio ** (j - len(self.values) + 1)

    def to_json(self) -> dict:
        if self.kind == "geometric":
            return {"kind": "geometric", "base": format_rational(self.base)}
        return {"kind": "explicit", "values": [format_rational(v) for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "RadiusProfile":
        if obj["kind"] == "geometric":
            return cls.geometric(parse_rational(obj["base"]))
        if obj["kind"] == "explicit":
            return cls.explicit([parse_rational(v) for v in obj["values"]])
        raise InvalidProfile(f"unknown profile kind {obj['kind']!r}")


DEFAULT_PROFILE = RadiusProfile.geometric(Fraction(1, 2))


@dataclass(frozen=True)
class ChainSpec:
    """Decreasing chain of subgroups of Z given by their generators.

    kind "ideal_power": level j is m**j Z.  kind "explicit": generators
    1 = g_0 | g_1 | g_2 | ..., continued past the list by the last ratio.
    Equal consecutive generators are allowed mid-list (non-strict chains);
    the tail ratio must exceed 1 so generators are unbounded.
    """

    kind: str
    m: int | None = None
    generators: tuple[int, ...] | None = None

    @classmethod
    def ideal_power(cls, m: int) -> "ChainSpec":
        if operator.index(m) < 2:
            raise InvalidChain(f"modulus must be >= 2, got {m}")
        return cls(kind="ideal_power", m=m)

    @classmethod
    def explicit(cls, generators) -> "ChainSpec":
        gens = tuple(operator.index(g) for g in generators)
        if len(gens) < 2:
            raise InvalidChain("explicit chain needs at least two generators")
        if gens[0] != 1:
            raise InvalidChain("an explicit chain starts with generator 1 (the whole group)")
        for a, b in zip(gens, gens[1:]):
            if b <= 0 or b % a != 0:
                raise InvalidChain(f"generator {b} is not a positive multiple of {a}")
        if gens[-1] == gens[-2]:
            raise InvalidChain("tail ratio must exceed 1 so the chain intersects to {0}")
        return cls(kind="explicit", generators=gens)

    def generator(self, j: int) -> int:
        """Generator of the level-j subgroup."""
        if j < 0:
            raise InvalidChain("chain level must be nonnegative")
        if self.kind == "ideal_power":
            return self.m ** j
        if j < len(self.generators):
            return self.generators[j]
        ratio = self.generators[-1] // self.generators[-2]
        return self.generators[-1] * ratio ** (j - len(self.generators) + 1)

    def to_json(self) -> dict:
        if self.kind == "ideal_power":
            return {"kind": "ideal_power", "m": self.m}
        return {"kind": "explicit", "generators": list(self.generators)}

    @classmethod
    def from_json(cls, obj: dict) -> "ChainSpec":
        if obj["kind"] == "ideal_power":
            return cls.ideal_power(obj["m"])
        if obj["kind"] == "explicit":
            return cls.explicit(obj["generators"])
        raise InvalidChain(f"unknown chain kind {obj['kind']!r}")


@dataclass(frozen=True)
class UltraDistance:
    """A distance as an exact (valuation, rational radius) pair."""

    valuation: Valuation
    radius: Fraction


def valuation(x: int, chain: ChainSpec) -> Valuation:
    """Largest j with x in the level-j subgroup; +inf for x = 0."""
    if x == 0:
        return INFINITY
    j = 0
    while x % chain.generator(j + 1) == 0:
        j += 1
    return j


def distance(x: int, y: int, chain: ChainSpec,
             profile: RadiusProfile = DEFAULT_PROFILE) -> UltraDistance:
    """d(x, y) = r_{j(x - y)}, symmetric and translation invariant."""
    j = valuation(x - y, chain)
    return UltraDistance(valuation=j, radius=profile.radius(j))


def product_disagreement(a, b, chain: ChainSpec) -> Valuation:
    """Agreement depth of two residue lists in the product of quotients.

    a[i] and b[i] are residues mod the (i+1)-st generator.  Returns the
    number of leading positions on which the lists agree: 0 when the first
    entries differ, +inf (agreement through the whole list) when a == b.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"residue lists of lengths {len(a)} and {len(b)}")
    for i, (ra, rb) in enumerate(zip(a, b)):
        g = chain.generator(i + 1)
        if not (0 <= ra < g and 0 <= rb < g):
            raise InvalidChain(f"residues at position {i + 1} are not reduced mod {g}")
        if ra != rb:
            return i
    return INFINITY


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a depth-bounded topological-equivalence search.

    forward[j] is the least l <= depth with B_l contained in A_j; backward
    is the symmetric map.  A failure records the direction and index at
    which no witness exists up to the depth; the verdict is then only
    "not equivalent up to this depth", not a disproof.
    """

    equivalent: bool
    depth: int
    forward: dict[int, int]
    backward: dict[int, int]
    failing_direction: str | None = None
    failing_index: int | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": "equivalent" if self.equivalent else "not_equivalent_up_to_depth",
            "depth": self.depth,
            "forward": {str(k): v for k, v in self.forward.items()},
            "backward": {str(k): v for k, v in self.backward.items()},
        }
        if not self.equivalent:
            out["failing_direction"] = self.failing_direction
            out["failing_index"] = self.failing_index
        return out


def _witness_cap(target: ChainSpec, container: ChainSpec, depth: int) -> int:
    # tail ratios are >= 2, so log2 of the deepest generator to contain
    # bounds the tail steps a witness can need; the explicit prefix and
    # possible non-strict repeats add at most its length plus depth
    prefix = len(target.generators) if target.kind == "explicit" else 0
    return depth + prefix + container.generator(depth).bit_length()


def _containment_witness(target: ChainSpec, container: ChainSpec,
                         index: int, cap: int) -> int | None:
    """Least l <= cap with target_l contained in container_index
    (divisibility of generators)."""
    gen = container.generator(index)
    for l in range(1, cap + 1):
        if target.generator(l) % gen == 0:
            return l
    return None


def check_chain_equivalence(chain_a: ChainSpec, chain_b: ChainSpec,
                            depth: int) -> EquivalenceReport:
    """Search containment witnesses B_l <= A_j and A_n <= B_k for every
    index up to depth.  Witness indices may exceed depth (the existential
    is unbounded); the search itself is cut off at a cap past which the
    geometric tail growth makes divisibility impossible."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    cap_f = _witness_cap(chain_b, chain_a, depth)
    cap_b = _witness_cap(chain_a, chain_b, depth)
    for j in range(1, depth + 1):
        found = _containment_witness(chain_b, chain_a, j, cap_f)
        if found is None:
            return EquivalenceReport(False, depth, forward, backward,
                                     failing_direction="B_into_A", failing_index=j)
        forward[j] = found
    for k in range(1, depth + 1):
        found = _containment_witness(chain_a, chain_b, k, cap_b)
        if found is None:
            return EquivalenceReport(False, depth, forward, backward,
                                     failing_direction="A_into_B", failing_index=k)
        backward[k] = found
    return EquivalenceReport(True, depth, forward, backward)


def space_to_json(chain: ChainSpec, profile: RadiusProfile) -> dict:
    return {"chain": chain.to_json(), "profile": profile.to_json()}


def space_from_json(obj: dict) -> tuple[ChainSpec, RadiusProfile]:
    return ChainSpec.from_json(obj["chain"]), RadiusProfile.from_json(obj["profile"])
