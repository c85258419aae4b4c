"""Exactness reference: the benchmark checks every library output against it.

It works on raw int tuples and shares no code with the library.  Points are
(xs, s) with every coordinate reduced mod M = m**n; b is the integer matrix
of the bilinear form; c is the central exponent of a chain family (1 for H,
2 for G).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

HALF = Fraction(1, 2)  # the library's default radius profile r_j = (1/2)**j
FAMILY_C = {"H": 1, "G": 2}


def bil(b, xs, ys) -> int:
    return sum(b[p][q] * xs[p] * ys[q] for p in range(len(b)) for q in range(len(b)))


# group law -------------------------------------------------------------------


def point(M, xs, s):
    return tuple(v % M for v in xs), s % M


def mul(M, b, g, h):
    return tuple((u + v) % M for u, v in zip(g[0], h[0])), (g[1] + h[1] + bil(b, g[0], h[0])) % M


def inv(M, b, g):
    return tuple(-v % M for v in g[0]), (bil(b, g[0], g[0]) - g[1]) % M


def conj(M, b, g, h):
    """Closed form of g h g^-1: (y, t + B(x, y) - B(y, x))."""
    return h[0], (h[1] + bil(b, g[0], h[0]) - bil(b, h[0], g[0])) % M


def dilate(M, r, g):
    return tuple(r * v % M for v in g[0]), r * r * g[1] % M


def member(m, g, c, j) -> bool:
    return all(v % m ** j == 0 for v in g[0]) and g[1] % m ** (c * j) == 0


def chain_member(m, n, g, c, j):
    if j > n or c * j > n:
        return None
    return member(m, g, c, j)


def coset_key(m, b, g, c, level):
    """Digits (x0, s0) of the left coset g H: g = (x0, s0) * (y, t) with
    y = 0 mod m^level and t = 0 mod m^(c*level)."""
    if level == 0:
        return (0,) * len(g[0]), 0
    x0 = tuple(v % m ** level for v in g[0])
    return x0, (g[1] - bil(b, x0, tuple(v - u for u, v in zip(x0, g[0])))) % m ** (c * level)


def group_distance(m, n, b, g, h, c):
    """(valuation, radius, exact) of rho(h^-1 g) at precision n."""
    M = m ** n
    z = mul(M, b, inv(M, b, h), g)
    cap = n // c
    depth = 0
    while depth < cap and member(m, z, c, depth + 1):
        depth += 1
    if depth == cap:
        trivial = not any(z[0]) and z[1] == 0
        return cap, Fraction(0) if trivial else HALF ** cap, False
    return depth, HALF ** depth, True


# finite quotients ------------------------------------------------------------


def quotient_size(m, rank, c, level) -> int:
    return m ** (level * (rank + c))


def reps(m, rank, c, level):
    """Canonical coset digits at a level, lexicographic."""
    return [(xs, s) for xs in itertools.product(range(m ** level), repeat=rank)
            for s in range(m ** (c * level))]


def subgroup_reps(m, rank, c, j, level):
    """Level-j subgroup representatives inside G/H_level, in scan order."""
    ml = m ** level
    return [(xs, s) for xs in itertools.product(range(0, ml, m ** j), repeat=rank)
            for s in range(0, ml, m ** (c * j))]


def predict_normality(m, b, c, j, level):
    """Closed-form normality of the level-j subgroup in G/H_level.

    Conjugation moves only the centre by A(x, y) = x^T (B - B^T) y.  H_j is
    always normal; G_j is normal iff m^j divides every entry of A.  The
    witness is the first escaping pair in scan order: the lex-least a with
    a^T A != 0 mod m^j (central digit 0), then the lex-least h in the
    subgroup.  Returns (normal, witness, pairs_scanned); pairs_scanned counts
    the conjugations an exhaustive scan performs up to its verdict.
    """
    rank = len(b)
    ml = m ** level
    sub = subgroup_reps(m, rank, c, j, level)
    full = ml ** (rank + 1) * len(sub)
    if c == 1 or j == 0:
        return True, None, full
    a_mat = [[b[p][q] - b[q][p] for q in range(rank)] for p in range(rank)]
    if all(v % m ** j == 0 for row in a_mat for v in row):
        return True, None, full
    for a_index, xs in enumerate(itertools.product(range(ml), repeat=rank)):
        row = [sum(xs[p] * a_mat[p][q] for p in range(rank)) for q in range(rank)]
        if any(v % m ** j for v in row):
            break
    for h_index, (ys, t) in enumerate(sub):
        if (t + sum(r * y for r, y in zip(row, ys))) % m ** (c * j):
            break
    scanned = a_index * ml * len(sub) + h_index + 1
    return False, ((xs, 0), (ys, t)), scanned


def normality_work(m, b, c, j, level):
    """(conjugations scanned, |G/H_level|, |G/H_level| x |subgroup|) of an
    exhaustive normality check."""
    _, _, scanned = predict_normality(m, b, c, j, level)
    quotient = quotient_size(m, len(b), 1, level)
    return scanned, quotient, quotient * len(subgroup_reps(m, len(b), c, j, level))


def weak_normality(m, n, b, c, a, j, depth, level):
    """Least l <= depth with a^-1 family_l a inside family_j, by scanning
    G/H_level representatives with the raw law.  Returns (level or None,
    conjugations performed)."""
    M = m ** n
    a_inv = inv(M, b, a)
    done = 0
    for l in range(depth + 1):
        ok = True
        for h in subgroup_reps(m, len(b), c, l, level):
            done += 1
            if not member(m, conj(M, b, a_inv, h), c, j):
                ok = False
                break
        if ok:
            return l, done
    return None, done


# haar --------------------------------------------------------------------------


def indicator_table(m, b, c, level, of):
    target = coset_key(m, b, of, c, level)
    return {k: Fraction(int(k == target)) for k in reps(m, len(b), c, level)}


def retabulate(m, n, b, c, table, level, new_level, compose):
    """Table of g -> table[key(compose(g))] over the level-new_level digits."""
    return {k: table[coset_key(m, b, compose(k), c, level)]
            for k in reps(m, len(b), c, new_level)}


def translate(m, n, b, c, table, level, a, side):
    M = m ** n
    if side == "left":
        return level, retabulate(m, n, b, c, table, level, level, lambda g: mul(M, b, a, g))
    new_level = level if c == 1 else 2 * level
    return new_level, retabulate(m, n, b, c, table, level, new_level,
                                 lambda g: mul(M, b, g, a))


# tower and localization --------------------------------------------------------


def int_valuation(d, m):
    if d == 0:
        return float("inf")
    v = 0
    while d % m == 0:
        d //= m
        v += 1
    return v


def factorize(k) -> dict:
    out, p = {}, 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def chain_equivalence(ma, mb, depth):
    """Ideal-power chains m_a^j Z and m_b^l Z: B_l lies in A_j iff
    m_b^l is divisible by m_a^j, i.e. l >= j e_a(p) / e_b(p) for every prime p.
    Returns (equivalent, forward, backward, failing_direction, failing_index)."""
    fa, fb = factorize(ma), factorize(mb)

    def least(target, container, j):
        if any(p not in target for p in container):
            return None
        return max(1, max(-(-j * e // target[p]) for p, e in container.items()))

    forward, backward = {}, {}
    for direction, target, container, found in (("B_into_A", fb, fa, forward),
                                                ("A_into_B", fa, fb, backward)):
        for j in range(1, depth + 1):
            l = least(target, container, j)
            if l is None:
                return False, tuple(forward.items()), tuple(backward.items()), direction, j
            found[j] = l
    return True, tuple(forward.items()), tuple(backward.items()), None, None


def closure(k, gens):
    """Multiplicative closure of gens and 1 inside Z/kZ."""
    out = {1}
    while True:
        new = {(a * g) % k for a in out for g in gens} - out
        if not new:
            return out
        out |= new


def frac_equal(k, gens, a, b):
    cross = a[0] * b[1] - b[0] * a[1]
    if k is None:
        return cross == 0
    return any(cross * v % k == 0 for v in closure(k, gens))


def frac_add(k, a, b):
    num, den = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    return (num, den) if k is None else (num % k, den % k)


def kernel_witness(k, gens, a):
    if k is None:
        return 1 if a == 0 else None
    return next((s for s in sorted(closure(k, gens)) if a * s % k == 0), None)


def frac_heis_mul(b, g, h):
    """Heisenberg product over S^-1 Z as exact rationals; g = (xs, xden, s, sden)."""
    xs = tuple(Fraction(u, g[1]) + Fraction(v, h[1]) for u, v in zip(g[0], h[0]))
    s = Fraction(g[2], g[3]) + Fraction(h[2], h[3]) + Fraction(bil(b, g[0], h[0]), g[1] * h[1])
    return xs, s
