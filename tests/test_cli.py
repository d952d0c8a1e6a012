import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import kostant_toda.cli as cli
from kostant_toda import resolvent
from kostant_toda import (
    IntegratorConfig,
    closed_form_resolvent,
    integrate,
    random_state,
    resolvent_block,
)
from kostant_toda.resolvent import spectral_ring
from kostant_toda.verify import CheckReport


def run(argv):
    return cli.main(argv)


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--seed", "1", "--m", "8", "--t-end", "1.0",
                "--h", "0.001", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1002  # header + 1001 samples
    assert lines[0].split(",")[0] == "t"


def test_simulate_stdout(capsys):
    assert run(["simulate", "--seed", "1", "--m", "6", "--t-end", "0.01",
                "--h", "0.001"]) == 0
    outtext = capsys.readouterr().out
    assert outtext.count("\n") == 12


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert run(["simulate", "--seed", "3", "--m", "8", "--t-end", "0.1",
                    "--h", "0.001", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_state_file_round_trip(tmp_path):
    state = {"a": [[0, 0]] * 4, "b": [1, 1, 1], "c": [[1, 0], [1, 0]]}
    sf = tmp_path / "state.json"
    sf.write_text(json.dumps(state))
    out = tmp_path / "polys.json"
    assert run(["polys", "--state", str(sf), "--count", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scalar"][2] == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert doc["scalar"][3] == [[-1.0, 0.0], [-2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_state_file_errors(tmp_path):
    sf = tmp_path / "state.json"
    sf.write_text(json.dumps({"a": [[0, 0]] * 4, "b": [1, 1, 1]}))
    assert run(["polys", "--state", str(sf)]) == 2  # missing c
    sf.write_text(json.dumps({"a": [0] * 4, "b": [1] * 3, "c": [1, 1], "d": []}))
    assert run(["polys", "--state", str(sf)]) == 2  # unknown field
    sf.write_text(json.dumps({"a": [0] * 4, "b": [1] * 3, "c": [[1, 0, 0], [1]]}))
    assert run(["polys", "--state", str(sf)]) == 2  # bad complex pair
    assert run(["polys", "--state", str(tmp_path / "nope.json")]) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "m": 6, "t_end": 0.01, "h": 0.001}))
    out1 = tmp_path / "one.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    n_cols = len(out1.read_text().split("\n")[0].split(","))
    assert n_cols == 1 + 2 * (6 + 5 + 4 + 3)
    # the explicit flag must beat the config value
    out2 = tmp_path / "two.csv"
    assert run(["simulate", "--config", str(cfg), "--m", "8",
                "--out", str(out2)]) == 0
    assert len(out2.read_text().split("\n")[0].split(",")) == 1 + 2 * (8 + 7 + 6 + 3)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_error_exit_codes():
    assert run(["simulate", "--seed", "0", "--m", "7", "--t-end", "0.01",
                "--h", "0.001"]) == 2  # odd m
    assert run(["simulate", "--seed", "0", "--m", "8", "--t-end", "1.0",
                "--h", "0.0003"]) == 2  # horizon off the step grid


def test_sample_array_too_big_for_memory_is_a_configuration_error(capsys):
    # 10^12 steps of 36 complex entries, 524 TiB: more than any address
    # space, so the allocation fails at once and touches no memory
    assert run(["simulate", "--m", "12", "--t-end", "1e9", "--h", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "(1000000000001, 36)" in err


def test_numerical_abort_exit_code(tmp_path):
    state = {
        "a": [[2, 0], [0, 0], [-2, 0], [0, 0]],
        "b": [0, 0, 0],
        "c": [[1.1e-12, 0], [1, 0]],
    }
    sf = tmp_path / "decay.json"
    sf.write_text(json.dumps(state))
    assert run(["simulate", "--state", str(sf), "--t-end", "0.1",
                "--h", "0.001"]) == 3
    # margin violation in the resolvent sweep aborts the same way
    assert run(["resolvent", "--seed", "2", "--m", "8", "--t-end", "0.01",
                "--h", "0.001", "--radius-mult", "1.2"]) == 3


def test_moments_methods_agree(tmp_path):
    args = ["moments", "--seed", "4", "--m", "10", "--n-max", "4"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--method", "power", "--out", str(p1)]) == 0
    assert run(args + ["--method", "conditions", "--out", str(p2)]) == 0
    m1 = np.array(json.loads(p1.read_text())["moments"])
    m2 = np.array(json.loads(p2.read_text())["moments"])
    assert m1.shape == (5, 2, 2, 2)
    assert np.max(np.abs(m1 - m2)) < 1e-11


def test_moments_series_method(tmp_path):
    out = tmp_path / "s.json"
    assert run(["moments", "--seed", "4", "--m", "12", "--n-max", "3",
                "--method", "series", "--t", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tail_bound"] < 1e-12
    assert doc["terms_used"] > 0
    # and it matches integrating then taking moments directly
    out2 = tmp_path / "d.json"
    assert run(["moments", "--seed", "4", "--m", "12", "--n-max", "3",
                "--method", "power", "--t", "0.5", "--out", str(out2)]) == 0
    m_series = np.array(doc["moments"])
    m_direct = np.array(json.loads(out2.read_text())["moments"])
    assert np.max(np.abs(m_series - m_direct)) < 1e-5


def test_polys_json_shape(tmp_path):
    out = tmp_path / "p.json"
    assert run(["polys", "--seed", "2", "--m", "10", "--count", "3",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["scalar"]) == 8
    assert [v["n"] for v in doc["vector"]] == [0, 1, 2, 3]
    v1 = doc["vector"][1]
    assert v1["top"] == doc["scalar"][2]
    assert v1["bottom"] == doc["scalar"][3]


def test_resolvent_sweep(tmp_path, monkeypatch):
    steps = []

    def counting(state, cfg, corruption=None):
        steps.append(cfg.n_steps)
        return integrate(state, cfg, corruption)

    monkeypatch.setattr(cli, "integrate", counting)
    monkeypatch.setattr(resolvent, "integrate", counting)
    out = tmp_path / "r.csv"
    assert run(["resolvent", "--seed", "2", "--m", "8", "--t-end", "0.1",
                "--h", "0.001", "--angles", "4", "--stride", "50",
                "--closed-form", "--out", str(out)]) == 0
    assert steps == [100]  # the closed form replays the sweep's one flow
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12  # times 0, 50, 100 x 4 angles
    assert max(float(r["max_diff"]) for r in rows) < 1e-8
    assert all(float(r["tail_bound"]) <= 1e-10 for r in rows)
    ts = sorted({float(r["t"]) for r in rows})
    assert ts == [0.0, 0.05, 0.1]


def test_verify_quick_and_report(tmp_path, capsys):
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["verify", "--seeds", "0", "--report", str(rep1)]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert run(["verify", "--seeds", "0", "--report", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    doc = json.loads(rep1.read_text())
    assert doc["all_passed"] is True


def test_verify_failure_exit_code(monkeypatch, capsys):
    def fake_suite(**kwargs):
        return [
            CheckReport(
                id="x",
                instance={},
                max_residual=1.0,
                threshold=1e-6,
                passed=False,
                runtime_s=0.0,
            )
        ]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    assert run(["verify", "--quick"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_verify_unknown_control():
    assert run(["verify", "--quick", "--control", "bogus-kind"]) == 2


def test_verify_empty_seed_list_is_a_configuration_error(capsys):
    assert run(["verify", "--seeds", ""]) == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("field,bad", [("a", float("nan")), ("b", float("inf")),
                                       ("c", float("-inf")), ("t", float("nan")),
                                       ("t", float("inf"))])
def test_nonfinite_state_file_is_a_configuration_error(tmp_path, capsys, field, bad):
    state = {"a": [0.0] * 4, "b": [1.0] * 3, "c": [1.0] * 2}
    if field == "t":
        state["t"] = bad
    else:
        state[field][1] = bad
    sf = tmp_path / "state.json"
    sf.write_text(json.dumps(state))  # json writes NaN / Infinity and reads them back
    assert run(["simulate", "--state", str(sf), "--t-end", "0.01",
                "--h", "0.001"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--t-end", "nan"],
                                   ["--h", "inf"], ["--h", "nan"]])
def test_nonfinite_horizon_or_step_is_a_configuration_error(capsys, flags):
    assert run(["simulate", "--seed", "0", "--m", "8", *flags]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc", [
    ("simulate", {"seed": 1.5}),  # int
    ("simulate", {"m": 6.0}),  # int
    ("simulate", {"t_end": True}),  # float
    ("verify", {"quick": "false"}),  # bool
    ("resolvent", {"closed_form": 1}),  # bool
    ("moments", {"method": "bogus"}),  # choices
    ("verify", {"seeds": [0, 1.5]}),  # seed list
])
def test_config_value_of_wrong_type_is_a_configuration_error(tmp_path, capsys,
                                                             command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg)]) == 2
    (key,) = doc
    assert key in capsys.readouterr().err.replace("-", "_")


def test_config_seeds_as_list_or_comma_string(tmp_path):
    cfg = tmp_path / "cfg.json"
    for seeds in ([0, 3], "0,3"):
        cfg.write_text(json.dumps({"seeds": seeds, "quick": True}))
        args = cli._parse(["verify", "--config", str(cfg)])
        assert args.seeds == [0, 3] and args.quick is True


_SAMPLES = {int: ("3", 3), float: ("0.5", 0.5), str: ("x.json", "x.json"),
            cli._seed_list: ("1,2", [1, 2]), cli._at_least_one: ("3", 3),
            cli._finite_positive: ("0.5", 0.5)}


def _option_cases():
    for name, commands, kind, _default, _help in cli._OPTIONS:
        for command in commands.split():
            yield command, name, kind


@pytest.mark.parametrize("command,name,kind", list(_option_cases()))
def test_every_option_is_a_flag_and_a_config_key(tmp_path, command, name, kind):
    flag = ["--" + name.replace("_", "-")]
    if kind is bool:
        value = config_value = True
    elif isinstance(kind, tuple):
        value = config_value = kind[-1]
        flag.append(value)
    else:
        text, value = _SAMPLES[kind]
        config_value = value
        flag.append(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: config_value}))
    assert getattr(cli._parse([command]), name) != value
    assert getattr(cli._parse([command, *flag]), name) == value
    assert getattr(cli._parse([command, "--config", str(cfg)]), name) == value


def test_simulate_stdout_matches_out_file(tmp_path, capsys):
    argv = ["simulate", "--seed", "2", "--m", "8", "--t-end", "0.02", "--h", "0.001"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "t.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("closed_form", [False, True])
def test_resolvent_csv_parses_back_bit_identical(tmp_path, closed_form):
    out = tmp_path / "r.csv"
    argv = ["resolvent", "--seed", "3", "--m", "8", "--t-end", "0.02", "--h", "0.001",
            "--angles", "3", "--stride", "7", "--out", str(out)]
    assert run(argv + ["--closed-form"] * closed_form) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    state, cfg = random_state(3, 8), IntegratorConfig(t_end=0.02, h=0.001)
    traj = integrate(state, cfg)
    zs = spectral_ring(traj, 3)
    closed = closed_form_resolvent(traj, zs) if closed_form else None
    assert table.shape == (4 * 3, 12 + 9 * closed_form)
    rows = iter(table)
    for k in (0, 7, 14, 20):
        for iz, z in enumerate(zs):
            row = next(rows)
            rb = resolvent_block(traj.state_at(k), complex(z), tol=1e-10)
            expect = [traj.ts[k], z.real, z.imag]
            expect += [x for e in rb.value.ravel() for x in (e.real, e.imag)]
            expect.append(rb.tail_bound)
            if closed_form:
                cf = closed[k, iz]
                expect += [x for e in cf.ravel() for x in (e.real, e.imag)]
                expect.append(np.max(np.abs(cf - rb.value)))
            assert row.tobytes() == np.array(expect).tobytes()


@pytest.mark.parametrize("flags", [["--stride", "0"], ["--stride", "-1"],
                                   ["--angles", "0"], ["--angles", "-2"]])
def test_resolvent_stride_and_angles_below_one_are_configuration_errors(capsys,
                                                                        flags):
    assert run(["resolvent", "--seed", "0", "--m", "8", "--t-end", "0.01",
                *flags]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "32", "--m", "32", "--t-end", "2", "--h", "1e-3"],
    ["resolvent", "--seed", "32", "--m", "32", "--t-end", "2", "--h", "1e-3",
     "--angles", "2"],
    ["moments", "--seed", "32", "--m", "32", "--t", "2"],
])
def test_overflowing_flow_is_a_numerical_abort(capsys, argv):
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(argv) == 3
    captured = capsys.readouterr()
    assert "left the finite range" in captured.err
    assert captured.out == ""


def test_verify_seed_three_writes_a_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["verify", "--seeds", "3", "--report", str(report)]) == 0
    text = report.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    doc = json.loads(text)
    assert doc["all_passed"] is True and len(doc["checks"]) == 22


@pytest.mark.parametrize("argv", [
    ["moments", "--method", "series", "--t", "0.5"],
    ["moments", "--method", "power"],
    ["polys"],
])
def test_json_stdout_matches_out_file(tmp_path, capsys, argv):
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n")
    out = tmp_path / "doc.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def test_overflow_prints_only_the_abort_line():
    # a fresh interpreter, so that numpy's warnings reach stderr as they
    # would on the command line
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["simulate", "--seed", "32", "--m", "32", "--t-end", "2", "--h", "1e-3"]
    proc = subprocess.run([sys.executable, "-m", "kostant_toda.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("numerical abort: the flow left the finite range")


@pytest.mark.parametrize("flags", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--radius-mult", "nan"], ["--radius-mult", "inf"], ["--radius-mult", "0"],
])
def test_resolvent_series_inputs_must_be_finite_and_positive(capsys, flags):
    assert run(["resolvent", "--seed", "0", "--m", "8", "--t-end", "0.01",
                *flags]) == 2
    captured = capsys.readouterr()
    assert "must be finite and > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_series_moments_at_nonfinite_time_are_a_configuration_error(capsys, t):
    assert run(["moments", "--method", "series", "--t", t]) == 2
    assert "t must be finite" in capsys.readouterr().err
