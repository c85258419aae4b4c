"""cli_oneshot: one `python -m madic_heisenberg.cli` subprocess per operation.

Interpreter start-up, import and argparse dominate, so start-up work shows
only here.  A pass runs every documented README example, compared byte for
byte with the README, plus seeded inv, conj, dilate, member, cosets (CSV),
check-equiv, frac --op eq over Z/k, a second check-normal of the README's
size, and one expected exit-1 and one expected exit-2 invocation, which
succeed when the exit code and the class name on stderr match.  The two
check-normal invocations (about 0.5 s of compute each) set the tail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from . import reference as ref
from .engine import Op, Workload

# (argv, stdout) exactly as documented in README.md under "Command line".
README_EXAMPLES = (
    (["dist", "--m", "2", "--x", "5", "--y", "13"],
     '{"valuation": 3, "radius": "1/8"}'),
    (["haar", "--m", "2", "--N", "1", "--b", "[[1]]", "--level", "1", "--function", "const1"],
     '{"integral": "1/1"}'),
    (["mul", "--m", "2", "--N", "1", "--b", "[[1]]", "--g", '{"x": [0], "s": 0}',
      "--h", '{"x": [5], "s": 9}'],
     '{"x": [5], "s": 9, "m": 2, "n": 6}'),
    (["check-normal", "--m", "2", "--N", "2", "--b", "[[0,1],[0,0]]", "--family", "G",
      "--j", "1", "--level", "4"],
     '{"verdict": "NotNormal", "family": "G", "j": 1, "level": 4, "certificate_scope": '
     '"image in G/H_4 only (finite-quotient certificate)", "witness": {"a": {"x": [0, 1], '
     '"s": 0, "m": 2, "n": 6}, "h": {"x": [2, 0], "s": 0, "m": 2, "n": 6}}}'),
    (["frac", "--S", '{"kind": "generated", "gens": [2, 3]}', "--op", "add",
      "--a", '{"num": 1, "den": 2}', "--b", '{"num": 1, "den": 3}'],
     '{"ring": "Z", "S": {"kind": "generated", "gens": [2, 3]}, "num": "5", "den": "6"}'),
)
PRECISION = 6  # the CLI default
MIN_SAMPLES = 100  # nearest-rank p90 needs n >= 100 for ten samples beyond it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STARTUP_NOMINAL_NS = 45_000_000  # startup_kernel() at the reference speed


def child_env() -> dict:
    """The caller's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("MHEIS_CONFIG", None)
    return env


def run_child(argv, env, rss_kb=None):
    """Run the interpreter with argv; (exit code, stdout, stderr).  The
    child's peak RSS in KiB is appended to rss_kb."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if rss_kb is not None:
        rss_kb.append(usage.ru_maxrss)
    return proc.returncode, out, err


def startup_kernel() -> int:
    """Time of a bare interpreter start, the calibration for subprocess
    timings: start-up slows under contention less than computation does,
    and by about as much as the start-up part of an invocation."""
    t0 = time.perf_counter_ns()
    run_child(["-c", "pass"], child_env())
    return time.perf_counter_ns() - t0


def _result(code, out, err):
    """(exit code, stdout, class name that starts stderr)."""
    return code, out, err.split(b":", 1)[0].decode(errors="replace") if err else ""


def _point_json(xs, s):
    return {"x": list(xs), "s": s, "m": 2, "n": PRECISION}


def _point_arg(p):
    return json.dumps({"x": list(p[0]), "s": p[1]})


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def _normality_stdout(m, b, level):
    normal, witness, _ = ref.predict_normality(m, b, 2, 1, level)
    out = {"verdict": "Normal" if normal else "NotNormal", "family": "G", "j": 1,
           "level": level,
           "certificate_scope": f"image in G/H_{level} only (finite-quotient certificate)"}
    out["witness"] = None if normal else {
        "a": {"x": list(witness[0][0]), "s": witness[0][1], "m": m, "n": PRECISION},
        "h": {"x": list(witness[1][0]), "s": witness[1][1], "m": m, "n": PRECISION}}
    return _line(out)


def _cases(rng, size):
    """(argv, expected (code, stdout, stderr class), group ops, cosets, pairs)."""
    readme_work = {"mul": (1, 0, 0), "haar": (0, ref.quotient_size(2, 1, 2, 1), 0),
                   "check-normal": ref.normality_work(2, ((0, 1), (0, 0)), 2, 1, 4)}
    cases = [(argv, (0, (out + "\n").encode(), ""), *readme_work.get(argv[0], (0, 0, 0)))
             for argv, out in README_EXAMPLES
             if size == "full" or argv[0] != "check-normal"]
    m, M = 2, 2 ** PRECISION
    b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    ctx_args = ["--m", "2", "--N", "2", "--b", json.dumps(b)]

    def pt():
        return tuple(rng.randrange(M) for _ in range(2)), rng.randrange(M)
    g, h = pt(), pt()
    cases.append((["inv", *ctx_args, "--g", _point_arg(g)],
                  (0, _line(_point_json(*ref.inv(M, b, g))), ""), 1, 0, 0))
    cases.append((["conj", *ctx_args, "--g", _point_arg(g), "--h", _point_arg(h)],
                  (0, _line(_point_json(*ref.conj(M, b, g, h))), ""), 1, 0, 0))
    r = rng.randint(-6, 6)
    cases.append((["dilate", *ctx_args, "--r", str(r), "--g", _point_arg(g)],
                  (0, _line(_point_json(*ref.dilate(M, r, g))), ""), 1, 0, 0))
    family, j = rng.choice("HG"), rng.randint(1, 3)
    member = ref.chain_member(m, PRECISION, h, ref.FAMILY_C[family], j)
    cases.append((["member", *ctx_args, "--g", _point_arg(h), "--family", family, "--j", str(j)],
                  (0, _line({"family": family, "j": j, "member": member}), ""), 0, 0, 0))
    family = rng.choice("HG")
    rows = ref.reps(m, 2, ref.FAMILY_C[family], 1)
    csv = "x1,x2,s\n" + "".join(f"{xs[0]},{xs[1]},{s}\n" for xs, s in rows)
    cases.append((["cosets", *ctx_args, "--family", family, "--level", "1"],
                  (0, csv.encode(), ""), 0, len(rows), 0))
    a, c, depth = rng.choice((2, 4, 6, 12)), rng.choice((2, 3, 8, 18)), rng.randint(3, 8)
    eq, forward, backward, direction, index = ref.chain_equivalence(a, c, depth)
    report = {"verdict": "equivalent" if eq else "not_equivalent_up_to_depth", "depth": depth,
              "forward": {str(k): v for k, v in forward},
              "backward": {str(k): v for k, v in backward}}
    if not eq:
        report.update(failing_direction=direction, failing_index=index)
    cases.append((["check-equiv", "--chain-a", json.dumps({"kind": "ideal_power", "m": a}),
                   "--chain-b", json.dumps({"kind": "ideal_power", "m": c}),
                   "--depth", str(depth)], (0, _line(report), ""), 0, 0, 0))
    k, gens = rng.choice(((12, [2]), (30, [2, 3]), (18, [3])))
    dens = sorted(ref.closure(k, gens))
    fa = (rng.randrange(k), rng.choice(dens))
    fb = (fa[0] * rng.choice(dens), fa[1] * rng.choice(dens)) if rng.random() < 0.5 else \
        (rng.randrange(k), rng.choice(dens))
    cases.append((["frac", "--ring", f"Z/{k}", "--S", json.dumps({"kind": "generated", "gens": gens}),
                   "--op", "eq", "--a", json.dumps({"num": fa[0], "den": fa[1]}),
                   "--b", json.dumps({"num": fb[0], "den": fb[1]})],
                  (0, _line({"equal": ref.frac_equal(k, gens, fa, fb)}), ""), 0, 0, 0))
    if size == "full":
        while True:  # an odd skew b01 - b10 puts the witness where the README's is
            bn = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if (bn[0][1] - bn[1][0]) % 2:
                break
        cases.append((["check-normal", "--m", "2", "--N", "2", "--b", json.dumps(bn),
                       "--family", "G", "--j", "1", "--level", "4"],
                      (0, _normality_stdout(m, bn, 4), ""), *ref.normality_work(m, bn, 2, 1, 4)))
    cases.append((["check-normal", *ctx_args, "--family", "G", "--j", str(rng.randint(2, 3)),
                   "--level", "3"], (1, b"", "LevelTooShallow"), 0, 0, 0))
    cases.append((["mul", *ctx_args, "--g", "{" + _point_arg(g), "--h", _point_arg(h)],
                  (2, b"", "JSONDecodeError"), 0, 0, 0))
    return cases


def generate(seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"cli_oneshot:{seed}")
    env = child_env()
    rss_kb: list = []
    cases = _cases(rng, size)
    ops = [Op("cli.invocation", lambda a: _result(*run_child(a, env, rss_kb)),
              (["-m", "madic_heisenberg.cli", *argv],), lambda r: r, lambda e=expected: e, argv)
           for argv, expected, *_ in cases]

    def counts():
        group_ops, cosets, pairs = (sum(col) for col in zip(*(c[2:] for c in cases)))
        return {"count.group_ops": group_ops, "count.cosets_enumerated": cosets,
                "count.normality_pairs_bound": pairs, "count.cli_invocations": len(cases)}
    return Workload(
        name="cli_oneshot", ops=ops, counts=counts,
        info={"invocations_per_pass": len(ops), "subcommands": [c[0][0] for c in cases]},
        tail_cap=Fraction(90), min_samples=MIN_SAMPLES if size == "full" else 0,
        child_rss_kb=rss_kb, kernel=(startup_kernel, STARTUP_NOMINAL_NS),
    )


def _main_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _result(code, out.getvalue().encode(), err.getvalue().encode())


def startup_ops(workload: Workload, repeats: int = 5) -> list[Op]:
    """Start-up costs as operations: a bare interpreter, the import of the
    CLI module in a fresh interpreter, and cli.main run in this process with
    stdout captured, once for each invocation of the workload."""
    import madic_heisenberg.cli as cli

    env = child_env()
    ops = []
    for _ in range(repeats):
        for span, argv in (("cli.interpreter", ["-c", "pass"]),
                           ("cli.import", ["-c", "import madic_heisenberg.cli"])):
            ops.append(Op(span, lambda a: run_child(a, env)[0], (argv,), lambda code: code,
                          lambda: 0, argv))
    for op in workload.ops:
        ops.append(Op("cli.main", _main_in_process, (cli, op.args[0][2:]), lambda r: r,
                      op.expect, op.key))
    return ops
