"""Measure a generated workload, check its outputs and report the metrics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from fractions import Fraction

from . import cli_oneshot, engine, manifest, point_ops, quotient_scan

UNIT_NS = {"us": 1e3, "ms": 1e6}


def input_digest(workload) -> str:
    return hashlib.sha256(repr([op.key for op in workload.ops]).encode()).hexdigest()


def machine(root: str) -> dict:
    commit = "unknown"  # a checkout without .git does not know its commit
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": sys.version, "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": commit}


def interpreter() -> dict:
    flags = {f: getattr(sys.flags, f) for f in ("optimize", "dont_write_bytecode", "dev_mode",
                                                 "utf8_mode", "hash_randomization", "isolated")}
    env = {k: v for k, v in os.environ.items() if k.startswith("PYTHON") and k != "PYTHONPATH"}
    return {"flags": flags, "env": env}


def child_setups(name: str, seed: int, count: int, root: str) -> tuple[list, list]:
    """Set-up seconds of `count` fresh interpreters, raw and at the reference
    speed (scaled by bare interpreter starts just before and after each
    child, since set-up is mostly import)."""
    argv = [os.path.join(root, "perfbench", "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-only"]
    raw, scaled = [], []
    before = cli_oneshot.startup_kernel()
    for _ in range(count):
        code, stdout, stderr = cli_oneshot.run_child(argv, cli_oneshot.child_env())
        if code != 0:
            raise RuntimeError(f"set-up child failed: {stderr.decode(errors='replace')}")
        after = cli_oneshot.startup_kernel()
        raw.append(float(stdout.split()[-1]))
        scaled.append(raw[-1] * 2 * cli_oneshot.STARTUP_NOMINAL_NS / (before + after))
        before = after
    return raw, scaled


def end_to_end(workload, loop, setups):
    raw_setups, scaled_setups = setups
    lat = sorted(loop.scaled_ns)
    p, tail, beyond = engine.tail(lat, workload.tail_cap)
    rss_kb = max(workload.child_rss_kb) if workload.child_rss_kb else loop.first_pass_rss_kb
    metrics = {
        "setup_s": engine.median(scaled_setups),
        "throughput_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": engine.percentile(lat, Fraction(50))[0] / 1e6,
        "latency_tail_ms": tail / 1e6,
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = sorted(loop.raw_ns)
    detail = {"tail_percentile": float(p), "tail_samples_beyond": beyond, "samples": len(lat),
              "passes": loop.passes, "measured_s": loop.wall_ns / 1e9,
              "speed_factor": engine.median(loop.calibrations) / loop.nominal_ns,
              "raw_setup_s": engine.median(raw_setups),
              "raw_throughput_per_s": len(raw) / (sum(raw) / 1e9),
              "raw_latency_p50_ms": engine.percentile(raw, Fraction(50))[0] / 1e6,
              "raw_latency_tail_ms": engine.percentile(raw, p)[0] / 1e6,
              "peak_rss_of": ("largest child" if workload.child_rss_kb
                              else "own process, set-up and first pass"),
              "own_peak_rss_mb_at_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, detail


def per_layer(workload, seed, seconds):
    """The loop in four alternating quarters, untraced and traced, so drift
    during the run does not land on one side of the tracing overhead.  Call
    durations come from the untraced quarters and self times from the traced
    ones.  Probes of the layers the workload does not call follow, so every
    per-layer metric has a value."""
    spans: list = []
    loops = [engine.measure(workload.ops, seconds / 4, 0, spans if traced else None,
                            workload.kernel)
             for _ in range(2) for traced in (False, True)]
    failed, examples = engine.check(workload.ops, loops)

    point_wl = cli_wl = workload
    probes = []  # (ops, seconds)
    if workload.name != "point_ops":
        point_wl = point_ops.generate(seed, "tiny")
        probes.append((point_wl.ops, 0.2))
    if workload.name != "quotient_scan":
        probes.append((quotient_scan.generate(seed, "tiny").ops, 0))
    if workload.name != "cli_oneshot":
        cli_wl = cli_oneshot.generate(seed, "tiny")
    probes += [(cli_oneshot.startup_ops(cli_wl), 0), (point_ops.raw_mul_ops(point_wl), 0.05)]
    timed = [loops[0], loops[2]]
    for ops, probe_seconds in probes:
        timed.append(engine.measure(ops, probe_seconds))
        failed += engine.check(ops, timed[-1:])[0]

    durations: dict[str, list] = {}
    for loop in timed:
        for span, ds in loop.by_span().items():
            durations.setdefault(span, []).extend(ds)
    medians = {span: engine.median(ds) for span, ds in durations.items()}
    metrics = {}
    for name in manifest.CALL_METRICS:
        span, unit = name.rsplit("_", 1)
        metrics[name] = medians[span] / UNIT_NS[unit]
    metrics["cli.import_ms"] = (medians["cli.import"] - medians["cli.interpreter"]) / 1e6
    shares = engine.self_shares(spans)
    for layer in manifest.LAYERS:
        metrics[f"{layer}.self_pct"] = shares.get(layer, 0.0)
    # Pass time, which holds the span records, scaled like the calls.
    per_op = [sum(loop.wall_ns * loop.nominal_ns / engine.median(loop.calibrations)
                  for loop in loops[side::2]) /
              sum(len(loop.raw_ns) for loop in loops[side::2]) for side in (0, 1)]
    metrics["trace.overhead_pct"] = 100.0 * (per_op[1] / per_op[0] - 1)
    metrics.update(workload.counts())
    attempted = sum(len(loop.raw_ns) for loop in loops + timed[2:])
    detail = {"untraced_passes": loops[0].passes + loops[2].passes,
              "traced_passes": loops[1].passes + loops[3].passes,
              "untraced_ns_per_op": per_op[0], "traced_ns_per_op": per_op[1],
              "speed_factor": engine.median(loops[0].calibrations) / loops[0].nominal_ns,
              "spans": len(spans)}
    return metrics, detail, failed, attempted, examples, spans


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("name,start_ns,end_ns,parent\n")
        for name, t0, t1, parent in spans:
            fh.write(f"{name},{t0},{t1},{parent}\n")


def run(workload, seed, seconds, trace, children, root) -> int:
    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, detail, failed, attempted, examples, spans = per_layer(workload, seed, seconds)
        write_spans(os.path.join(out_dir, f"{stem}-spans.csv"), spans)
        units = {m["name"]: m["unit"] for m in manifest.per_layer()}
    else:
        setups = child_setups(workload.name, seed, children, root)
        loop = engine.measure(workload.ops, seconds, workload.min_samples, None, workload.kernel)
        failed, examples = engine.check(workload.ops, [loop])
        attempted = len(loop.raw_ns)
        metrics, detail = end_to_end(workload, loop, setups)
        units = {m["name"]: m["unit"] for m in manifest.END_TO_END}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "mismatches": examples, "detail": detail, "work_per_pass": workload.counts(),
        "inputs": {**workload.info, "digest": input_digest(workload)},
        "machine": machine(root), "interpreter": interpreter(),
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    for k, v in detail.items():
        print(f"# {k} = {v}")
    print(f"# failed_ratio = {failed}/{attempted}; input digest {record['inputs']['digest'][:16]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0
