import json
import subprocess
import sys


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "madic_heisenberg.cli", *args],
                          capture_output=True, env=env)


class TestDocumentedExamples:
    def test_dist(self):
        out = run_cli("dist", "--m", "2", "--x", "5", "--y", "13")
        assert out.returncode == 0
        assert out.stdout == b'{"valuation": 3, "radius": "1/8"}\n'

    def test_haar_constant(self):
        out = run_cli("haar", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--level", "1", "--function", "const1")
        assert out.returncode == 0
        assert out.stdout == b'{"integral": "1/1"}\n'

    def test_mul_identity_echoes(self):
        out = run_cli("mul", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--g", '{"x": [0], "s": 0}', "--h", '{"x": [5], "s": 9}')
        assert json.loads(out.stdout) == {"x": [5], "s": 9, "m": 2, "n": 6}


class TestDeterminism:
    CASES = [
        ("dist", "--m", "3", "--x", "7", "--y", "25"),
        ("haar", "--m", "2", "--N", "1", "--b", "[[1]]", "--level", "1",
         "--function", 'indicator:{"x": [1], "s": 2}'),
        ("check-normal", "--m", "2", "--N", "2", "--b", "[[0,1],[0,0]]",
         "--family", "G", "--j", "1", "--level", "4"),
        ("cosets", "--m", "2", "--N", "1", "--b", "[[1]]", "--family", "H",
         "--level", "1"),
        ("check-equiv", "--chain-a", '{"kind": "ideal_power", "m": 2}',
         "--chain-b", '{"kind": "ideal_power", "m": 4}', "--depth", "5"),
    ]

    def test_byte_identical_reruns(self):
        for case in self.CASES:
            first, second = run_cli(*case), run_cli(*case)
            assert first.returncode == 0, first.stderr
            assert first.stdout == second.stdout


class TestSubcommands:
    def test_inv(self):
        out = run_cli("inv", "--m", "10", "--N", "1", "--b", "[[1]]", "--n", "2",
                      "--g", '{"x": [2], "s": 3}')
        assert json.loads(out.stdout) == {"x": [98], "s": 1, "m": 10, "n": 2}

    def test_dilate(self):
        out = run_cli("dilate", "--m", "10", "--N", "2", "--b", "[[0,1],[0,0]]",
                      "--n", "2", "--r", "3", "--g", '{"x": [1, 2], "s": 1}')
        assert json.loads(out.stdout) == {"x": [3, 6], "s": 9, "m": 10, "n": 2}

    def test_member(self):
        out = run_cli("member", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--g", '{"x": [4], "s": 8}', "--family", "G", "--j", "2")
        assert json.loads(out.stdout)["member"] is False

    def test_cosets_csv(self):
        out = run_cli("cosets", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--family", "G", "--level", "1")
        lines = out.stdout.decode().splitlines()
        assert lines[0] == "x1,s"
        assert len(lines) == 9  # header + 8 cosets

    def test_cosets_json(self):
        out = run_cli("cosets", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--family", "H", "--level", "1", "--format", "json")
        doc = json.loads(out.stdout)
        assert doc["family"] == "H" and len(doc["reps"]) == 4

    def test_check_normal_verdicts(self):
        out = run_cli("check-normal", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--family", "H", "--j", "2", "--level", "4")
        assert json.loads(out.stdout)["verdict"] == "Normal"
        out = run_cli("check-normal", "--m", "2", "--N", "2", "--b", "[[0,1],[0,0]]",
                      "--family", "G", "--j", "1", "--level", "4")
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "NotNormal" and doc["witness"] is not None

    def test_frac_ops(self):
        out = run_cli("frac", "--S", '{"kind": "generated", "gens": [2, 3]}',
                      "--op", "add", "--a", '{"num": 1, "den": 2}',
                      "--b", '{"num": 1, "den": 3}')
        doc = json.loads(out.stdout)
        assert (doc["num"], doc["den"]) == ("5", "6")
        out = run_cli("frac", "--ring", "Z/6",
                      "--S", '{"kind": "generated", "gens": [3]}',
                      "--op", "kernel", "--elem", "2")
        assert json.loads(out.stdout) == {"witness": 3}

    def test_selftest_passes(self):
        out = run_cli("selftest")
        assert out.returncode == 0
        lines = out.stdout.decode().splitlines()
        assert all(line.startswith("ok - ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("no-such-command").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("dist", "--m", "2", "--x", "5").returncode == 2

    def test_domain_error(self):
        out = run_cli("frac", "--S", '{"kind": "generated", "gens": [2]}',
                      "--op", "add", "--a", '{"num": 1, "den": 6}',
                      "--b", '{"num": 1, "den": 2}')
        assert out.returncode == 1
        assert b"NotInMultiplicativeSet" in out.stderr

    def test_precision_domain_error(self):
        out = run_cli("cosets", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--family", "G", "--level", "9")
        assert out.returncode == 1

    def test_non_integer_point_rejected(self):
        out = run_cli("mul", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--g", '{"x": [0.5], "s": 0}', "--h", '{"x": [1], "s": 0}')
        assert (out.returncode, out.stdout) == (2, b"")
        assert out.stderr.startswith(b"TypeError")

    def test_non_integer_form_rejected(self):
        out = run_cli("mul", "--m", "2", "--N", "1", "--b", "[[1.9]]",
                      "--g", '{"x": [1], "s": 0}', "--h", '{"x": [1], "s": 0}')
        assert (out.returncode, out.stdout) == (2, b"")
        assert out.stderr.startswith(b"TypeError")

    def test_non_integer_fraction_rejected(self):
        half = '{"num": 1, "den": 2}'
        for S, a in (('{"kind": "generated", "gens": [2.5]}', half),
                     ('{"kind": "generated", "gens": [2]}', '{"num": 1.9, "den": 2}')):
            out = run_cli("frac", "--S", S, "--op", "add", "--a", a, "--b", half)
            assert (out.returncode, out.stdout) == (2, b"")
            assert out.stderr.startswith(b"TypeError")

    def test_fraction_decimal_strings_accepted(self):
        out = run_cli("frac", "--S", '{"kind": "generated", "gens": [2, 3]}', "--op", "add",
                      "--a", '{"num": "1", "den": "2"}', "--b", '{"num": 1, "den": 3}')
        assert (out.returncode, json.loads(out.stdout)["num"]) == (0, "5")

    def test_non_integer_chain_rejected(self):
        out = run_cli("dist", "--chain", '{"kind": "ideal_power", "m": 2.5}',
                      "--x", "5", "--y", "13")
        assert (out.returncode, out.stdout) == (2, b"")
        assert out.stderr.startswith(b"TypeError")

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[2, 1]")
        out = run_cli("--config", str(cfg), "mul",
                      "--g", '{"x": [1], "s": 0}', "--h", '{"x": [1], "s": 0}')
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr

    def test_zero_denominator_profile(self):
        out = run_cli("dist", "--m", "2", "--x", "5", "--y", "13",
                      "--profile", '{"kind": "geometric", "base": "1/0"}')
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr

    def test_zero_denominator_table(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"level": 0, "family": "G", "entries": [
            {"rep": {"x": [0], "s": 0}, "value": "1/0"}]}))
        out = run_cli("haar", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--level", "0", "--function", f"@{table}")
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr

    def test_decimal_beyond_float_range(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"level": 0, "family": "G", "entries": [
            {"rep": {"x": [0], "s": 0}, "value": f"{10 ** 400}/1"}]}))
        out = run_cli("haar", "--m", "2", "--N", "1", "--b", "[[1]]",
                      "--level", "0", "--function", f"@{table}", "--decimal")
        assert (out.returncode, out.stdout) == (1, b"")
        assert out.stderr.startswith(b"DomainError")


class TestConfig:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "N": 1, "b": [[1]], "n": 6}))
        out = run_cli("--config", str(cfg), "mul",
                      "--g", '{"x": [1], "s": 0}', "--h", '{"x": [1], "s": 0}')
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"x": [2], "s": 1, "m": 2, "n": 6}

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "N": 1, "b": [[1]], "n": 6}))
        out = run_cli("--config", str(cfg), "mul", "--n", "2",
                      "--g", '{"x": [1], "s": 0}', "--h", '{"x": [1], "s": 3}')
        assert json.loads(out.stdout)["n"] == 2

    def test_env_var_config(self, tmp_path):
        import os
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "N": 1, "b": [[1]]}))
        env = dict(os.environ, MHEIS_CONFIG=str(cfg))
        out = run_cli("member", "--g", '{"x": [2], "s": 4}', "--family", "G",
                      "--j", "1", env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["member"] is True
