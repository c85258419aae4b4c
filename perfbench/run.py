"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
perfbench/manifest.py; --trace 1 runs the loop once untraced and once with
a span around every call into the library, and reports the per-layer
metrics and the tracing overhead.  Every run also writes its full record
(input digest, work counts, tail percentile, machine and interpreter) to
perfbench/results/.  With --setup-only, a run prints its set-up seconds and
stops; the benchmark starts such runs to time set-up in fresh interpreters.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The module each workload's user imports: the package, or the CLI module.
PACKAGE = {"point_ops": "madic_heisenberg", "quotient_scan": "madic_heisenberg",
           "cli_oneshot": "madic_heisenberg.cli"}
SETUP_CHILDREN = 5  # set-ups in fresh interpreters; setup_s is their median
USAGE = "usage: run.py --workload NAME --seed N --seconds S --trace 0|1"


def fail(message: str):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    """Flags by hand: argparse is part of what cli_oneshot's set-up times."""
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    setup_only = "--setup-only" in argv
    argv = [a for a in argv if a != "--setup-only"]
    if len(argv) % 2 or any(flag not in opts for flag in argv[::2]):
        fail(USAGE)
    opts.update(zip(argv[::2], argv[1::2]))
    if opts["--workload"] not in PACKAGE or opts["--trace"] not in ("0", "1"):
        fail(USAGE)
    try:
        seed = int(opts["--seed"])
        seconds = 0.0 if setup_only else float(opts["--seconds"])
    except (TypeError, ValueError):
        fail(USAGE)
    return opts["--workload"], seed, seconds, opts["--trace"] == "1", setup_only


def setup(name: str, seed: int):
    """Import the library and generate the seeded inputs (for cli_oneshot,
    plus one untimed warm-up invocation).  Returns (workload, seconds); the
    import of the benchmark's own modules is not counted."""
    t0 = time.perf_counter()
    package = __import__(PACKAGE[name], fromlist=["_"])
    t1 = time.perf_counter()
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        fail(f"imported {package.__file__}, not the checkout's src/")
    module = __import__(f"perfbench.{name}", fromlist=["generate"])
    t2 = time.perf_counter()
    workload = module.generate(seed)
    if name == "cli_oneshot":
        first = workload.ops[0]
        first.fn(*first.args)
        workload.child_rss_kb.clear()
    return workload, (t1 - t0) + (time.perf_counter() - t2)


def main(argv) -> int:
    name, seed, seconds, trace, setup_only = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "madic_heisenberg", "__init__.py")):
        fail(f"no library at {SRC}: run from the root of a checkout")
    if sys.flags.optimize:
        fail("run without -O: conjugate and integrate check results with assert")
    if not setup_only:
        # One CPU for the run, its set-up children and its CLI children, so the
        # calibration that scales their times measured the core they ran on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, ROOT]
    workload, setup_s = setup(name, seed)
    if setup_only:
        print(repr(setup_s))
        return 0

    from perfbench import record

    return record.run(workload, seed, seconds, trace, SETUP_CHILDREN, ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
