import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rotalign
from rotalign import TraceEntry, cli, detect
from rotalign.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_saddle_offset(capsys):
    code, out, _ = run_cli(capsys, "detect", "--field", "1,0,0,-1",
                           "--alpha", "0.4", "--eps", "1e-6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert abs(payload["alpha"] - 0.4) <= 1e-5
    assert payload["iterations"] <= 3


def test_detect_vortex_is_rotation_invariant(capsys):
    code, out, _ = run_cli(capsys, "detect", "--field", "0,1,-1,0", "--alpha", "0.7")
    assert code == 0
    assert "status: converged" in out


def test_detect_zero_field_fails(capsys):
    code, _, err = run_cli(capsys, "detect", "--field", "0,0,0,0", "--alpha", "0.1")
    assert code == 1
    assert "zero field" in err


def test_detect_iteration_cap_exit_code(capsys):
    # aligned pure saddle parks on the quarter-turn plateau and hits the cap
    code, out, _ = run_cli(capsys, "detect", "--field", "1,0,0,-1",
                           "--alpha", "0", "--max-iter", "20", "--json", "--trace")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "max_iter_exceeded"
    branches = [t["branch"] for t in payload["trace"]]
    assert branches.count("perturb") == 1
    assert branches.count("lock") == 1


@pytest.mark.parametrize("flags, printed", [((), False), (("--trace",), True),
                                              (("--json",), False), (("--json", "--trace"), True)])
def test_detect_builds_the_trace_only_when_printed(monkeypatch, capsys, flags, printed):
    # The spy keeps the result, and so any trace built, alive; with the
    # collector off, every TraceEntry made stays listed by gc.get_objects().
    seen = []

    def spy(*args, **kwargs):
        seen.append(detect(*args, **kwargs))
        return seen[-1]

    def entries() -> int:
        return sum(type(o) is TraceEntry for o in gc.get_objects())

    monkeypatch.setattr(cli, "detect", spy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = entries()
        code, _, _ = run_cli(capsys, "detect", "--field", "1,0.2,0.3,-1", "--alpha", "0.4",
                             *flags)
        built = entries() - before
    finally:
        if was_enabled:
            gc.enable()
    assert code == 0
    [result] = seen
    assert result.iterations > 2
    assert built == (result.iterations if printed else 0)
    assert len(result.trace) == result.iterations


def test_detect_from_field_files(tmp_path, capsys):
    from rotalign import LinearField, total_rotate

    v = LinearField(0.4, -0.2, 0.9, 0.3)
    u = total_rotate(v, 0.25)
    v_path = tmp_path / "v.json"
    u_path = tmp_path / "u.json"
    v_path.write_text(json.dumps(v.to_json_dict()))
    u_path.write_text(json.dumps(u.to_json_dict()))
    code, out, _ = run_cli(capsys, "detect", "--field-file", str(v_path),
                           "--pattern-file", str(u_path), "--eps", "1e-6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha"] - 0.25) <= 1e-4


@pytest.mark.parametrize("content, named", [
    ({"a11": 1.0, "a12": 0.0, "a21": 0.0}, "'a22'"),
    ({"a11": 1.0, "a12": 0.0, "a21": 0.0, "a22": -1.0, "domain": {"kind": "square"}}, "'l'"),
    ([1.0, 0.0, 0.0, -1.0], "JSON object"),
    ({"a11": float("nan"), "a12": 0.0, "a21": 0.0, "a22": -1.0}, "finite"),
])
def test_detect_malformed_field_file_exits_one(tmp_path, capsys, content, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "detect", "--field-file", str(path), "--alpha", "0.3")
    assert code == 1
    assert out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("domain", ["square:1e80", "square:1e77", "square:1e-80"])
def test_detect_unrepresentable_domain_exits_one(capsys, domain):
    # The domain's second moment would overflow, or underflow to a
    # subnormal that costs the readings their precision.
    code, out, err = run_cli(capsys, "detect", "--field", "0.4,-0.2,0.9,0.3",
                             "--alpha", "0.3", "--domain", domain)
    assert code == 1
    assert out == ""
    assert "second moment" in err and "Traceback" not in err


def test_detect_human_output_has_degrees(capsys):
    code, out, _ = run_cli(capsys, "detect", "--field", "1,0,0,-1", "--alpha", "0.4")
    assert code == 0
    assert "rad" in out and "deg" in out


def test_decompose_recompose_round_trip_bytes(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--field", "1.5,0.25,-0.5,3", "--json")
    assert code == 0
    coeffs = json.loads(out)
    arg = ",".join(repr(coeffs[k]) for k in ("a", "b", "c", "d"))
    # values starting with a dash need the equals form, as usual with argparse
    code, out2, _ = run_cli(capsys, "decompose", f"--coeffs={arg}", "--json")
    assert code == 0
    rebuilt = json.loads(out2)
    assert [rebuilt[k] for k in ("a11", "a12", "a21", "a22")] == [1.5, 0.25, -0.5, 3.0]
    # byte-exact through a second pass
    code, out3, _ = run_cli(capsys, "decompose", "--field", "1.5,0.25,-0.5,3", "--json")
    assert out3 == out


def test_correlate_outer_rotation_argument(capsys):
    code, out, _ = run_cli(capsys, "correlate", "--field", "1,0,0,-1",
                           "--alpha", "0.3", "--rotation", "outer", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["argument"] + 0.3) <= 1e-12
    assert set(payload["value"]) == {"s", "e1", "e2", "e12"}


def test_correlate_sampled_backend(capsys):
    code, out, _ = run_cli(capsys, "correlate", "--field", "0.4,-0.2,0.9,0.3",
                           "--alpha", "0.5", "--n", "128", "--json")
    assert code == 0
    payload = json.loads(out)
    code, out2, _ = run_cli(capsys, "correlate", "--field", "0.4,-0.2,0.9,0.3",
                            "--alpha", "0.5", "--json")
    exact = json.loads(out2)
    assert abs(payload["argument"] - exact["argument"]) <= 1e-3


@pytest.mark.parametrize("n", ["0", "1"])
def test_correlate_too_coarse_grid_exits_one(capsys, n):
    # --n 0 selects the sampled backend too; it must not fall back to the closed form.
    code, out, err = run_cli(capsys, "correlate", "--field", "0.4,-0.2,0.9,0.3",
                             "--alpha", "0.5", "--n", n)
    assert code == 1
    assert out == ""
    assert "at least 2" in err and err.count("\n") == 1


@pytest.mark.parametrize("n", [None, "16"])
def test_correlate_non_finite_value_exits_one(capsys, n):
    # The value overflows; its argument would read -pi/4 instead of -0.6.
    argv = ["correlate", "--field", "1e200,0,0,-1e200", "--alpha", "0.3", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, *(["--n", n] if n else []))
    assert code == 1
    assert out == ""
    assert err.startswith("rotalign: error:") and err.count("\n") == 1


@pytest.mark.parametrize("n", [None, "16"])
def test_correlate_underflowing_value_exits_one(capsys, n):
    # Every product underflows to zero; the argument would read 0.0, not -0.6.
    argv = ["correlate", "--field", "1e-200,0,0,-1e-200", "--alpha", "0.3", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, *(["--n", n] if n else []))
    assert code == 1
    assert out == ""
    assert err.startswith("rotalign: error:") and err.count("\n") == 1
    # A zero field's correlation is exactly zero, not an underflow.
    code, out, _ = run_cli(capsys, "correlate", "--field", "0,0,0,0", "--alpha", "0.3",
                           "--json", *(["--n", n] if n else []))
    assert code == 0
    assert json.loads(out)["magnitude"] == 0.0


def test_correlate_orthogonal_fields_exits_one(tmp_path, capsys):
    # A saddle against a source correlates to exactly zero: no argument.
    pattern = tmp_path / "source.json"
    pattern.write_text(json.dumps({"a11": 1.0, "a12": 0.0, "a21": 0.0, "a22": 1.0}))
    code, out, err = run_cli(capsys, "correlate", "--field=1,0,0,-1",
                             "--pattern-file", str(pattern))
    assert code == 1
    assert out == ""
    assert "undefined" in err and err.count("\n") == 1


def test_detect_orthogonal_fields_exits_one(tmp_path, capsys):
    # A saddle against a source correlates to zero at every turn: no offset.
    pattern = tmp_path / "source.json"
    pattern.write_text(json.dumps({"a11": 1.0, "a12": 0.0, "a21": 0.0, "a22": 1.0}))
    code, out, err = run_cli(capsys, "detect", "--field", "1,0,0,-1",
                             "--pattern-file", str(pattern))
    assert code == 1
    assert out == ""
    assert "no turn correlates" in err and err.count("\n") == 1


def test_experiment_round_trips_and_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for path in (out1, out2):
        code, _, _ = run_cli(capsys, "experiment", "--trials", "50", "--eps", "0.01",
                             "--seed", "7", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["trials"] == 50
    assert payload["seed"] == 7


def test_experiment_csv_format(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "experiment", "--trials", "30", "--eps", "0.05",
                         "--seed", "9", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("eps,avg_error,max_error,avg_iterations")
    assert len(lines) == 2


@pytest.mark.parametrize("option, value", [
    ("--coeff-bound", "inf"), ("--coeff-bound", "nan"), ("--coeff-bound", "-1"),
    ("--coeff-bound", "0"), ("--coeff-bound", "1e308"), ("--coeff-bound", "8e307"),
    ("--seed", "-1"),
    ("--eps", "1e-10"), ("--max-iter", "0"),
])
def test_experiment_invalid_spec_exits_one(tmp_path, capsys, option, value):
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(capsys, "experiment", "--trials", "5", "--eps", "0.1",
                                option, value, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("rotalign: error:") and err.count("\n") == 1
    assert not out.exists()


def test_experiment_report_is_strict_json(tmp_path, capsys):
    # Every trial is capped, so the converged-only statistics are undefined.
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "experiment", "--trials", "5", "--eps", "1e-8",
                         "--max-iter", "1", "--out", str(path))
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["avg_error"] is None and payload["max_error"] is None
    assert payload["non_converged_trials"] == 5
    assert payload["avg_error_all"] > 0.0


def test_experiment_reports_errors_whose_sum_overflows(tmp_path, capsys):
    # Single errors reach about 1e308, so their plain sum overflows.
    path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "experiment", "--trials", "500", "--eps", "0.1",
                               "--coeff-bound", "4.4e307", "--seed", "3", "--out", str(path))
    assert code == 0, err
    payload = json.loads(path.read_text())
    assert payload["max_error_all"] > 1e307
    for key in ("avg_error", "avg_error_all"):
        assert 0.0 < payload[key] <= payload[key.replace("avg", "max")]


def test_sample_counterexample_preset(tmp_path, capsys):
    path = tmp_path / "ce.csv"
    code, _, _ = run_cli(capsys, "sample", "--preset", "counterexample",
                         "--n", "16", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 257
    assert lines[0] == "x1,x2,v1,v2,inside"


def test_sample_field_with_rotated_copy(tmp_path, capsys):
    path = tmp_path / "f.csv"
    rotated = tmp_path / "f_rot.csv"
    code, _, _ = run_cli(capsys, "sample", "--field", "1,0,0,1", "--n", "8",
                         "--alpha", "0.4", "--out", str(path),
                         "--rotated-out", str(rotated))
    assert code == 0
    assert len(path.read_text().strip().splitlines()) == 65
    # a pure source is invariant under total rotation
    assert rotated.read_text() == path.read_text()


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "detect", "--field", "1,2,3")[0] == 1
    assert run_cli(capsys, "detect", "--alpha", "0.4")[0] == 1
    assert run_cli(capsys, "experiment", "--trials", "5", "--eps", "0.1",
                   "--threads", "2")[0] == 1
    assert run_cli(capsys, "sample", "--preset", "weird", "--n", "8",
                   "--out", "/tmp/x.csv")[0] == 1


def test_console_script_entry_point():
    # The child imports the same rotalign as this process, installed or not.
    package_root = str(Path(rotalign.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rotalign.cli", "decompose", "--field",
         "3,0,0,1", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"a": 1.0, "b": 0.0, "c": 2.0, "d": 0.0}
