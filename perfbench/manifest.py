"""The benchmark's definition: workloads, metrics and bounds.

BENCHMARK.json at the repository root is generated from this file:

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    {"name": "point_ops",
     "why": "single-element calls on every layer, no enumeration: per-object overhead dominates, "
            "so a flat point representation shows here and closed forms do not"},
    {"name": "quotient_scan",
     "why": "quotient-sized jobs whose cost is enumeration and brute-force conjugation: closed-form "
            "normality and a single enumerator show here"},
    {"name": "cli_oneshot",
     "why": "one mheis subprocess per operation over the README examples: interpreter start-up, "
            "import and argparse dominate, so start-up work shows only here"},
]

# bound: the share of the parent's median by which a metric may worsen.  Over
# two sets of ten seeds per workload on a shared 2-core sandbox, the spread
# (quartile distance over median) of every time metric stayed below 0.065
# (widest: quotient_scan median and throughput, where two multi-second calls
# dominate) and that of memory below 0.005; each bound is at least three
# times that.  setup_s is exempt from the spread test and has the largest
# bound.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]

# Median duration of the calls the benchmark makes into each layer.
CALL_METRICS = [
    "madic.mul_us", "madic.invert_unit_us", "madic.geom_inverse_us", "madic.valuation_us",
    "hmodule.bilinear_eval_us", "hmodule.apply_linear_us",
    "heisenberg.point_us", "heisenberg.mul_us", "heisenberg.inv_us", "heisenberg.conjugate_us",
    "heisenberg.dilate_us", "heisenberg.group_distance_us", "heisenberg.coset_key_us",
    "heisenberg.check_normality_ms", "heisenberg.check_weak_normality_ms",
    "haar.enumerate_cosets_ms", "haar.cylinder_build_ms", "haar.integrate_ms",
    "haar.translate_ms", "haar.pushforward_ms",
    "localization.frac_equal_us", "localization.kernel_witness_us",
    "localization.frac_heis_mul_us",
    "tower.distance_us", "tower.chain_equivalence_us",
    "cli.interpreter_ms", "cli.import_ms", "cli.main_ms",
    "ref.raw_mul_us",
]
COUNTS = ["count.group_ops", "count.cosets_enumerated", "count.normality_pairs_bound",
          "count.cli_invocations"]
LAYERS = ["madic", "hmodule", "heisenberg", "haar", "localization", "tower", "cli", "bench"]


def _unit(name: str) -> str:
    return name.rsplit("_", 1)[1]


def per_layer() -> list[dict]:
    out = [{"name": n, "unit": _unit(n), "better": "lower"} for n in CALL_METRICS]
    out += [{"name": f"{layer}.self_pct", "unit": "%", "better": "lower"} for layer in LAYERS]
    out.append({"name": "trace.overhead_pct", "unit": "%", "better": "lower"})
    out += [{"name": n, "unit": "count", "better": "lower"} for n in COUNTS]
    return out


def manifest() -> dict:
    return {"command": COMMAND, "paths": PATHS, "run_seconds": RUN_SECONDS,
            "workloads": WORKLOADS, "end_to_end": END_TO_END, "per_layer": per_layer()}


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        fh.write(render())
