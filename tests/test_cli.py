import argparse
import csv
import io
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
    resolvent_sweep,
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


def test_simulate_benchmark_csv_is_the_serial_bytes(tmp_path, monkeypatch, capsys):
    # simulate-csv-t1's configuration: 2,001 rows of 187 fields, written by
    # two processes on two CPUs and by one on one CPU
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["simulate", "--m", "32", "--t-end", "1", "--h", "5e-4", "--out"]
    for cpus, name in (({0, 1}, "two.csv"), ({0}, "one.csv")):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert run(argv + [str(tmp_path / name)]) == 0
    assert forks == [1]
    two = (tmp_path / "two.csv").read_bytes()
    assert two == (tmp_path / "one.csv").read_bytes() and two.count(b"\n") == 2_002
    traj = integrate(random_state(0, 32), IntegratorConfig(t_end=1.0, h=5e-4))
    table = np.column_stack([traj.ts, traj.samples.view(np.float64)])
    assert two == _savetxt(two[: two.index(b"\n")].decode(), table)


def _savetxt(header, table) -> bytes:
    """The CSV bytes numpy writes for table under header, %.17g per field."""
    with io.StringIO() as buf:
        np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
        return buf.getvalue().encode("ascii")


def _real_state_file(tmp_path):
    """A real instance whose imaginary parts are written as -0.0."""
    st = random_state(3, 12)
    path = tmp_path / "real.json"
    bands = {x: [[v, -0.0] for v in getattr(st, x).real.tolist()] for x in "abc"}
    path.write_text(json.dumps(bands))
    return path


def test_real_state_simulate_csv_is_savetxt(tmp_path, capsys):
    # every imaginary part starts at -0, so the table holds signed zeros;
    # 1,001 rows of 67 fields take the two-process path on two CPUs
    path, out = _real_state_file(tmp_path), tmp_path / "traj.csv"
    assert run(["simulate", "--state", str(path), "--out", str(out)]) == 0
    traj = integrate(cli._load_state(str(path)), IntegratorConfig(t_end=1.0, h=1e-3))
    table = np.column_stack([traj.ts, traj.samples.view(np.float64)])
    got = out.read_bytes()
    assert got == _savetxt(got[: got.index(b"\n")].decode(), table)
    assert b",-0," in got and b",0," in got


def test_real_state_resolvent_csv_is_savetxt(tmp_path, capsys):
    path, out = _real_state_file(tmp_path), tmp_path / "ring.csv"
    assert run(["resolvent", "--state", str(path), "--angles", "4", "--out", str(out)]) == 0
    traj = integrate(cli._load_state(str(path)), IntegratorConfig(t_end=1.0, h=1e-3))
    zs = spectral_ring(traj, 4)
    rows = list(range(0, traj.n_samples, 100))
    values, tails = resolvent_sweep(traj.a[rows], traj.b[rows], traj.c[rows], zs, 1e-10)
    table = np.column_stack([
        np.repeat(traj.ts[rows], 4), np.tile(zs.real, len(rows)),
        np.tile(zs.imag, len(rows)), values.reshape(-1, 4).view(np.float64),
        tails.ravel(),
    ])
    got = out.read_bytes()
    assert got == _savetxt(got[: got.index(b"\n")].decode(), table)
    assert b",0," in got  # R's imaginary parts at the real ring point


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
    # fields of the wrong JSON type exited 1 with a TypeError traceback,
    # and true was read as 1
    for doc in ({"t": None}, {"a": 5}, {"t": True}, {"c": [1, True]}):
        sf.write_text(json.dumps({"a": [0] * 4, "b": [1] * 3, "c": [1, 1], **doc}))
        assert run(["polys", "--state", str(sf)]) == 2


@pytest.mark.parametrize("entry,index", [([True, 0], 0), (["1.5", 0], 1),
                                         ([0, None], 2), ([0, False], 3)])
def test_state_file_pair_parts_must_be_json_numbers(tmp_path, capsys, entry, index):
    # each part of a pair went through float(), so true read as 1 and "1.5"
    # as 1.5, and simulate exited 0
    a = [0, 0, 0, 0]
    a[index] = entry
    sf = tmp_path / "state.json"
    sf.write_text(json.dumps({"a": a, "b": [1] * 3, "c": [1, 1]}))
    assert run(["simulate", "--state", str(sf), "--t-end", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"'a' entry {index}" in err


@pytest.mark.parametrize("m", ["0", "1", "-4", "7"])
def test_bad_instance_size_names_the_rule(capsys, m):
    # m <= 1 exited 2 with numpy's "negative dimensions are not allowed"
    assert run(["simulate", "--m", m, "--t-end", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: lattice size m={m} must be even and >= 4\n"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "m": 6, "t_end": 0.01, "h": 0.001}))
    out1 = tmp_path / "one.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    n_cols = len(out1.read_text().split("\n")[0].split(","))
    assert n_cols == 1 + 2 * (6 + 5 + 4)
    # the explicit flag must beat the config value
    out2 = tmp_path / "two.csv"
    assert run(["simulate", "--config", str(cfg), "--m", "8",
                "--out", str(out2)]) == 0
    assert len(out2.read_text().split("\n")[0].split(",")) == 1 + 2 * (8 + 7 + 6)


def test_repeated_calls_reuse_one_parser(monkeypatch, capsys):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for seed in ("1", "2", "1"):
        assert run(["polys", "--seed", seed, "--m", "6", "--count", "1"]) == 0
    assert len(seen) == 3 and all(p is seen[0] for p in seen)


def test_a_bad_flag_leaves_the_next_call_unchanged(tmp_path, capsys):
    argv = ["simulate", "--seed", "2", "--m", "6", "--t-end", "0.01"]
    assert run(argv) == 0
    before = capsys.readouterr().out
    assert run(["simulate", "--seed", "2", "--m", "6", "--bogus"]) == 2
    assert run(["simulate", "--m", "not-a-number"]) == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == before


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    # a --config call, then flags over it, then neither: each call starts
    # from the defaults, and flags win over the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "m": 8, "count": 2}))
    assert run(["polys", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["m"], doc["count"]) == (8, 2)
    assert run(["polys", "--config", str(cfg), "--m", "6", "--count", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["m"], doc["count"]) == (6, 1)
    assert run(["polys"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["m"], doc["count"]) == (12, 4)


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
    # 10^12 steps of 33 complex entries, 480 TiB: more than any address
    # space, so the allocation fails at once and touches no memory
    assert run(["simulate", "--m", "12", "--t-end", "1e9", "--h", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "(1000000000001, 33)" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--h", "1e-320", "--t-end", "1"],
    ["resolvent", "--t-end", "1e300", "--h", "1e-10"],
    ["moments", "--method", "power", "--t", "1e300", "--h", "1e-300"],
])
def test_step_count_that_overflows_is_a_configuration_error(capsys, argv):
    # t_end / h overflows to inf, which round() refused with a traceback
    assert run(argv + ["--m", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "step count" in err and "is not finite" in err


def test_ring_too_big_for_memory_is_a_configuration_error(capsys):
    # 10^15 angles: the ring's int64 arange alone is 7.1 PiB, more than any
    # address space, so the allocation fails at once and touches no memory
    assert run(["resolvent", "--angles", "1000000000000000", "--t-end", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "(1000000000000000,)" in err


@pytest.mark.parametrize("command", ["simulate", "resolvent", "moments", "polys"])
def test_instance_too_big_for_memory_is_a_configuration_error(capsys, command):
    # 10^12 diagonal entries, 14.6 TiB: more than this or any test machine
    # holds, so the allocation fails at once and touches no memory
    assert run([command, "--m", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot store the instance")
    assert err.count("\n") == 1
    assert "(1000000000000,)" in err


def test_ring_radius_that_overflows_is_a_configuration_error():
    # rho_max of this instance is above 1, so 1e308 * rho_max is inf
    proc = _run_fresh(["resolvent", "--m", "8", "--t-end", "0.01",
                       "--radius-mult", "1e308"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("configuration error: ring radius")
    assert "not finite" in proc.stderr


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


@pytest.mark.parametrize("argv", [
    ["moments", "--method", "series", "--n-max", "-1"],
    ["moments", "--method", "series", "--n-max", "-2"],
    ["moments", "--method", "power", "--n-max", "-1"],
    ["moments", "--method", "conditions", "--n-max", "-1"],
    ["polys", "--count", "-1"],
])
def test_negative_order_is_a_configuration_error(capsys, argv):
    assert run(argv + ["--m", "12"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: n_max must be >= 0\n"


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
    assert steps == [100]  # the closed form reads the sweep's one flow
    with out.open() as f:
        rows = list(csv.DictReader(f))
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


@pytest.mark.parametrize("flags", [
    ["--t-end", "inf"], ["--t-end", "nan"], ["--h", "inf"], ["--h", "nan"],
    # an infinite corruption magnitude exited 3, blamed on the flow at step 1
    ["--corruption", "freeze-b", "--magnitude", "inf"],
])
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
def test_resolvent_csv_parses_back_bit_identical(
    tmp_path, closed_form, neumann_by_hand
):
    # each row is the lone call's, word for word. With the powers of 1/z
    # from numpy's array division instead of complex(z)'s, 329 of the 2,304
    # value words of the second sweep (32 angles by 9 rows) differ
    for seed, m, t_end, angles, stride in ((3, 8, 0.02, 3, 7), (0, 12, 0.05, 32, 7)):
        out = tmp_path / f"r{seed}.csv"
        argv = ["resolvent", "--seed", str(seed), "--m", str(m), "--t-end", str(t_end),
                "--h", "0.001", "--angles", str(angles), "--stride", str(stride),
                "--out", str(out)]
        assert run(argv + ["--closed-form"] * closed_form) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        traj = integrate(random_state(seed, m), IntegratorConfig(t_end=t_end, h=0.001))
        zs = spectral_ring(traj, angles)
        closed = closed_form_resolvent(traj, zs) if closed_form else None
        rows = [*range(0, traj.n_samples, stride), traj.n_samples - 1]  # last appended
        assert table.shape == (len(rows) * angles, 12 + 9 * closed_form)
        expect = []
        for k in rows:
            for iz, z in enumerate(zs):
                rb = resolvent_block(traj.state_at(k), complex(z), tol=1e-10)
                value, tail = neumann_by_hand(traj.state_at(k), complex(z), 1e-10)
                assert (rb.value.tobytes(), rb.tail_bound) == (value.tobytes(), tail)
                row = [traj.ts[k], z.real, z.imag]
                row += [x for e in rb.value.ravel() for x in (e.real, e.imag)]
                row.append(rb.tail_bound)
                if closed_form:
                    cf = closed[k, iz]
                    row += [x for e in cf.ravel() for x in (e.real, e.imag)]
                    row.append(np.max(np.abs(cf - rb.value)))
                expect.append(row)
        assert table.tobytes() == np.array(expect).tobytes()


def test_resolvent_ring_at_the_margin_is_swept(tmp_path):
    # rounding put a point of this ring one ulp inside 1.5 * rho, and the
    # sweep exited 3 with "|z| = 5.17197 is below ... 1.5 * rho = 5.17197"
    out = tmp_path / "r.csv"
    assert run(["resolvent", "--seed", "0", "--m", "12", "--t-end", "0.01",
                "--angles", "8", "--radius-mult", "1.5", "--out", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (11 * 8, 12)


def test_resolvent_inside_the_margin_refuses_the_first_point(capsys):
    assert run(["resolvent", "--radius-mult", "1.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical abort: |z| = 11.8102 is below the safety margin "
        "1.5 * rho = 14.7628\n"
    )


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


def _run_fresh(argv, module="kostant_toda.cli"):
    """The CLI in a fresh interpreter, so that numpy's warnings reach stderr
    as they would on the command line."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env)


def test_package_runs_as_the_command_line(capsys):
    # python -m kostant_toda gives main's bytes and exit codes
    argv = ["simulate", "--seed", "1", "--m", "6", "--t-end", "0.01", "--h", "0.001"]
    proc = _run_fresh(argv, module="kostant_toda")
    assert run(argv) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out
    proc = _run_fresh(["resolvent", "--tol", "0"], module="kostant_toda")
    assert proc.returncode == 2 and "must be finite and > 0" in proc.stderr


def test_overflow_prints_only_the_abort_line():
    proc = _run_fresh(["simulate", "--seed", "32", "--m", "32", "--t-end", "2",
                       "--h", "1e-3"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("numerical abort: the flow left the finite range")


def test_closed_form_sweep_at_m64_is_finite_and_quiet():
    # this ring's radius is about 2,050, so exp(z t) overflows: the closed
    # form must not pass through it
    proc = _run_fresh(["resolvent", "--seed", "830", "--m", "64", "--t-end", "1",
                       "--h", "1e-3", "--angles", "32", "--stride", "10",
                       "--closed-form"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert len(rows) == 101 * 32
    assert all(np.isfinite(float(v)) for r in rows for v in r.values())
    assert max(float(r["max_diff"]) for r in rows) <= 1e-4


def test_closed_form_with_a_large_diagonal_is_finite_and_quiet(tmp_path):
    # a shifted by 400: the flow's b and c are the unshifted ones, and
    # e^{(t - t0) J0} grows like e^{400 t}, past the finite range before
    # t = 2; the closed form must carry only e^{(t - t0)(J0 - sigma I)}
    st = random_state(0, 8)
    sf = tmp_path / "state.json"
    sf.write_text(json.dumps({key: [[x.real, x.imag] for x in v] for key, v in
                              (("a", st.a + 400), ("b", st.b), ("c", st.c))}))
    proc = _run_fresh(["resolvent", "--state", str(sf), "--t-end", "2", "--h", "1e-3",
                       "--angles", "4", "--stride", "10", "--closed-form"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert len(rows) == 201 * 4
    assert all(np.isfinite(float(v)) for r in rows for v in r.values())


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


@pytest.mark.parametrize("t,why", [
    ("0.0005", "integration horizon 0.0005 is not an integer multiple of h=0.001"),
    ("-0.5", "integration horizon must be finite and >= 0, got -0.5"),
], ids=["off-grid", "negative"])
def test_moments_time_errors_name_the_horizon_not_a_missing_flag(capsys, t, why):
    # moments has --t, not --t-end: the messages named the field t_end
    assert run(["moments", "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {why}\n"
    assert captured.out == ""


def test_series_moments_past_the_order_limit_are_a_configuration_error(capsys):
    assert run(["moments", "--method", "series", "--n-max", "56", "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: series needs moments up to")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    # rho / |z| = 2/3 at the margin: 5e-324 * 2/3 rounds back up to 5e-324,
    # so the geometric bound never falls below the tolerance
    ["--m", "12", "--t-end", "0", "--angles", "1", "--radius-mult", "1.5",
     "--tol", "5e-324"],
    # about 1,400 powers of J: they overflow, and 0 * inf summed to NaN
    ["--m", "64", "--angles", "4", "--radius-mult", "1.5", "--tol", "1e-250"],
], ids=["term-cap", "powers-overflow"])
def test_neumann_sums_past_the_float_range_are_a_quiet_numerical_abort(argv):
    proc = _run_fresh(["resolvent", *argv])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("numerical abort: "), proc.stderr


def test_neumann_abort_names_the_sample_time(capsys):
    # the written rows are every 100th sample here, and the first sum that
    # overflows is at sample 1000, written as row 10
    argv = ["resolvent", "--m", "64", "--angles", "4", "--radius-mult", "1.5",
            "--tol", "1e-250"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: the Neumann sum at t = 1, z = 33.0786+0j "
                          "is not finite"), err
