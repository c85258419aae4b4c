"""Closed-loop measurement shared by the workloads.

One client calls the operations of a workload in order, each after the
previous one returned, and repeats the whole list ("a pass") until the
measured time is spent.  Only whole passes run, so every run does the same
mix of work.  Outputs are reduced to exact canonical values after each pass,
with the clock stopped, and compared with the reference after the loop.

Timings are scaled to a reference machine speed.  The machines this runs on
share their cores, and a neighbour can slow every instruction by half for
tens of seconds; no run length averages that out.  So a fixed calibration
kernel runs at least every CAL_INTERVAL_NS, and each operation's duration
is multiplied by the kernel's nominal time over the mean kernel time just
before and just after it.  The default kernel is written in the library's
style (frozen dataclasses with checks, tuples of residues, sums of
products, fractions) but shares no code with it; subprocess timings use a
bare interpreter start instead (see cli_oneshot.startup_kernel).  The raw
durations are kept as well.
"""

from __future__ import annotations

import gc
import resource
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Percentiles a tail may be reported at; a workload caps the ladder so the
# reported percentile does not change when a faster program fits more samples.
LADDER = tuple(Fraction(p) for p in ("50", "75", "90", "95", "99", "99.9"))
TAIL_BEYOND = 10
CAL_INTERVAL_NS = 10_000_000
NOMINAL_CAL_NS = 200_000  # calibrate() at the reference speed


@dataclass
class Op:
    span: str                  # "<layer>.<call>": span name and metric stem
    fn: Callable
    args: tuple
    canon: Callable            # output -> exact, comparable value
    expect: Callable           # () -> canonical reference value, run after the loop
    key: object                # description of the input (for the digest)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    counts: Callable[[], dict]  # deterministic work in one pass, computed after the loop
    info: dict                 # input sizes and shares, recorded in the results
    tail_cap: Fraction         # highest percentile the tail is reported at
    min_samples: int = 0       # samples the capped tail percentile needs
    child_rss_kb: list = field(default_factory=list)  # filled by subprocess ops
    kernel: tuple | None = None  # (calibration function, its nominal ns); None: calibrate()


@dataclass
class Loop:
    ops: list[Op]
    raw_ns: array              # duration of each call, in call order
    scaled_ns: list            # the same at the reference speed
    wall_ns: int               # time inside passes, verification excluded
    passes: int
    seen: list                 # per op: {canonical output: times seen}
    calibrations: array        # kernel times, ns
    nominal_ns: int            # kernel time at the reference speed
    first_pass_rss_kb: int     # peak RSS of this process through the first pass

    def by_span(self) -> dict[str, list]:
        out: dict[str, list] = {}
        n = len(self.ops)
        for i, d in enumerate(self.scaled_ns):
            out.setdefault(self.ops[i % n].span, []).append(d)
        return out


@dataclass(frozen=True)
class _Residue:
    m: int
    n: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < self.m ** self.n:
            raise ValueError(self.value)


@dataclass(frozen=True)
class _Vector:
    coords: tuple

    def __post_init__(self):
        if any(c.m != self.coords[0].m for c in self.coords):
            raise ValueError(self.coords)


_FORM = ((1, 2), (3, 4))
_POINTS = [((i % 256, i * 7 % 256), i * 13 % 256) for i in range(22)]


def _kernel() -> int:
    t0 = time.perf_counter_ns()
    for i in range(21):
        x = _Vector(tuple(_Residue(2, 8, v) for v in _POINTS[i][0]))
        y = _Vector(tuple(_Residue(2, 8, (a.value + c) % 256)
                          for a, c in zip(x.coords, _POINTS[i + 1][0])))
        s = sum(_FORM[p][q] * x.coords[p].value * y.coords[q].value
                for p in range(2) for q in range(2))
        {(i, s % 7): Fraction(s, i + 1)}
    return time.perf_counter_ns() - t0


def calibrate() -> int:
    """Median of three kernel runs with the collector off, so the kernel's
    cost does not depend on how much the program has allocated."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sorted(_kernel() for _ in range(3))[1]
    finally:
        if enabled:
            gc.enable()


class Raised:
    def __init__(self, exc: Exception):
        self.exc = exc


def _canonical(op: Op, out):
    if isinstance(out, Raised):
        return ("raised", type(out.exc).__name__)
    try:
        return op.canon(out)
    except Exception as exc:  # an output of the wrong shape is a failed operation
        return ("bad-output", type(exc).__name__)


def measure(ops: list[Op], seconds: float, min_samples: int = 0, spans: list | None = None,
            kernel: tuple | None = None) -> Loop:
    """Run whole passes until `seconds` of pass time and `min_samples`
    operations are reached.  With `spans`, record (name, start_ns, end_ns,
    parent index) for every call and every pass.  kernel is (calibration
    function, its nominal ns), calibrate() by default."""
    calibrate_now, nominal = kernel or (calibrate, NOMINAL_CAL_NS)
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    raw, after = array("q"), array("q")  # after[i]: index of the first calibration after call i
    cal = array("q", [calibrate_now()])
    seen = [{} for _ in ops]
    wall = passes = rss_kb = 0
    last = clock()
    while passes == 0 or wall < budget or len(raw) < min_samples:
        outs = []
        parent = -1
        if spans is not None:
            parent = len(spans)
            spans.append(None)
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                out = op.fn(*op.args)
            except Exception as exc:  # counted as a failed operation after the loop
                out = Raised(exc)
            t1 = clock()
            raw.append(t1 - t0)
            after.append(len(cal))
            outs.append(out)
            if spans is not None:
                spans.append((op.span, t0, t1, parent))
            if t1 - last >= CAL_INTERVAL_NS:
                cal.append(calibrate_now())
                last = clock()
        end = clock()
        cal.append(calibrate_now())
        last = clock()
        wall += end - start
        if spans is not None:
            spans[parent] = ("bench.pass", start, end, -1)
        if passes == 0:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, out, counts in zip(ops, outs, seen):
            c = _canonical(op, out)
            counts[c] = counts.get(c, 0) + 1
        passes += 1
    scaled = [d * 2 * nominal / (cal[k - 1] + cal[k]) for d, k in zip(raw, after)]
    return Loop(ops, raw, scaled, wall, passes, seen, cal, nominal, rss_kb)


def check(ops: list[Op], loops: list[Loop]) -> tuple[int, list]:
    """Failed operations over all loops, and a few examples of mismatches."""
    failed, examples = 0, []
    for i, op in enumerate(ops):
        expected = op.expect()
        for loop in loops:
            for got, times in loop.seen[i].items():
                if got != expected:
                    failed += times
                    if len(examples) < 5:
                        examples.append({"op": op.span, "input": repr(op.key)[:300],
                                         "got": repr(got)[:300], "expected": repr(expected)[:300]})
    return failed, examples


def percentile(sorted_vals, p: Fraction):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_vals)
    beyond = int(n * (100 - p) / 100)
    return sorted_vals[n - beyond - 1], beyond


def tail(sorted_vals, cap: Fraction):
    """Highest ladder percentile, at most `cap`, with TAIL_BEYOND samples
    beyond it; the maximum when no rung has that many."""
    for p in reversed(LADDER):
        if p <= cap:
            value, beyond = percentile(sorted_vals, p)
            if beyond >= TAIL_BEYOND:
                return p, value, beyond
    return Fraction(100), sorted_vals[-1], 0


def median(values):
    vals = sorted(values)
    n = len(vals)
    return (vals[(n - 1) // 2] + vals[n // 2]) / 2


def self_shares(spans) -> dict[str, float]:
    """Each layer's self time as a percentage of the traced passes' time.

    A span's self time is its duration minus that of its children; the
    benchmark's own loop overhead is the layer "bench"."""
    self_ns: dict[str, int] = {}
    total = 0
    for name, t0, t1, parent in spans:
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0)
        if parent < 0:
            total += t1 - t0
        else:
            outer = spans[parent][0].split(".", 1)[0]
            self_ns[outer] -= t1 - t0
    return {layer: 100.0 * ns / total for layer, ns in self_ns.items()}
