"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cli_oneshot, engine, manifest, point_ops, quotient_scan, record  # noqa: E402

GENERATORS = {"point_ops": point_ops.generate, "quotient_scan": quotient_scan.generate,
              "cli_oneshot": cli_oneshot.generate}


def test_benchmark_json_is_generated_from_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert fh.read() == manifest.render()
    names = [w["name"] for w in manifest.WORKLOADS]
    assert sorted(names) == sorted(GENERATORS)
    assert all(len(w["why"]) <= 200 for w in manifest.WORKLOADS)


def test_embedded_examples_are_the_readme_examples():
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    documented = [(shlex.split(line[len("$ mheis "):]), lines[i + 1])
                  for i, line in enumerate(lines) if line.startswith("$ mheis ")]
    assert documented == [(argv, out) for argv, out in cli_oneshot.README_EXAMPLES]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_inputs_depend_on_the_seed_only(name):
    generate = GENERATORS[name]
    first, again, other = generate(7), generate(7), generate(8)
    assert record.input_digest(first) == record.input_digest(again)
    assert record.input_digest(first) != record.input_digest(other)
    assert first.counts() == again.counts()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_tiny_run_reports_every_metric_without_failures(name, trace, capsys):
    workload = GENERATORS[name](5, "tiny")
    assert record.run(workload, 5, 0, trace, 1, ROOT) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = manifest.per_layer() if trace else manifest.END_TO_END
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_output_is_counted_as_failed():
    workload = point_ops.generate(3, "tiny")
    op = workload.ops[0]
    op.expect = lambda: "not the output"
    loop = engine.measure(workload.ops, 0)
    failed, examples = engine.check(workload.ops, [loop])
    assert failed == 1 and examples[0]["op"] == op.span


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert engine.tail(list(range(100)), Fraction(90)) == (Fraction(90), 89, 10)
    assert engine.tail(list(range(99)), Fraction(90)) == (Fraction(75), 74, 24)
    assert engine.tail(list(range(20000)), Fraction("99.9")) == (Fraction("99.9"), 19979, 20)
    assert engine.tail(list(range(5)), Fraction(90)) == (Fraction(100), 4, 0)


def _run(cwd, *flags):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", "--workload", "point_ops",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_refuses_optimized_interpreter():
    out = _run(ROOT, "-O")
    assert out.returncode != 0 and "without -O" in out.stderr
