import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeq import (FitDivergedError, NetworkModel, ResourceLimitError, parse_gates,
                      save_model)
from cascadeq import cli
from cascadeq.cli import _write, main
from helpers import traced_peak


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def report_of(capsys, *args) -> dict:
    code, out = run_cli(capsys, *args)
    assert code == 0, out
    return json.loads(out)


def model_path(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_exact_matches_published_table(capsys, fixtures_dir):
    report = report_of(capsys, "exact", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "3")
    rows = {d["step"]: d["probabilities"] for d in report["results"]["distributions"]}
    printed = {
        0: {"00": 1.0, "10": 0.0, "01": 0.0, "11": 0.0},
        1: {"00": 0.240, "10": 0.560, "01": 0.060, "11": 0.140},
        2: {"00": 0.167, "10": 0.174, "01": 0.479, "11": 0.179},
        3: {"00": 0.140, "10": 0.219, "01": 0.308, "11": 0.333},
    }
    for step, row in printed.items():
        for config, value in row.items():
            assert rows[step].get(config, 0.0) == pytest.approx(value, abs=5e-4)


def test_exact_one_node_state_one_marginals(capsys, fixtures_dir):
    report = report_of(capsys, "exact", "--model",
                       model_path(fixtures_dir, "one_node_model.json"), "--steps", "4")
    rows = [d["probabilities"].get("1", 0.0) for d in report["results"]["distributions"]]
    assert rows[1:] == pytest.approx([0.300, 0.480, 0.588, 0.653], abs=5e-4)


def test_exact_zero_steps(capsys, fixtures_dir):
    report = report_of(capsys, "exact", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "0")
    assert report["results"]["distributions"] == [
        {"step": 0, "probabilities": {"00": 1.0}}]


def test_mc_reports_are_bit_identical(capsys, fixtures_dir):
    args = ("mc", "--model", model_path(fixtures_dir, "two_node_model.json"),
            "--steps", "3", "--runs", "20000", "--seed", "9", "--repeats", "3")
    first = report_of(capsys, *args)
    second = report_of(capsys, *args)
    assert json.dumps(first["results"], sort_keys=True) == json.dumps(
        second["results"], sort_keys=True)
    assert "spread" in first["results"]
    metrics = first["metrics"]
    assert set(metrics) == {"chunks", "p_on_rows", "sample_s", "trajectories_per_s",
                            "workers"}
    assert metrics["chunks"] == 3  # one 65,536-run chunk a repeat
    assert metrics["workers"] == 1  # one worker a chunk at most
    assert metrics["p_on_rows"] == 3 * 4  # one table of the 4 configurations a repeat
    assert metrics["sample_s"] > 0.0
    assert metrics["trajectories_per_s"] == pytest.approx(3 * 20000 / metrics["sample_s"])


@pytest.mark.parametrize("args", [
    ("exact", "--model", "{model}", "--steps", "3"),
    ("mc", "--model", "{model}", "--steps", "3", "--runs", "2000", "--repeats", "2"),
    ("circuit", "--model", "{model}", "--steps", "3", "--kind", "qae", "--config", "11",
     "--bits", "3"),
    ("circuit", "--model", "{model}", "--steps", "3", "--kind", "grover", "--config", "11",
     "--gates-out", "{tmp}/gates.txt"),
    ("qae", "--model", "{model}", "--steps", "3", "--config", "11", "--bits", "3..5"),
    ("qae", "--model", "{model}", "--steps", "3", "--config", "11", "--eigenphase"),
    ("lowdepth", "--model", "{model}", "--steps", "3", "--config", "11", "--shots", "100",
     "--seed", "1"),
    ("fit", "--trace", "{fixtures}/trace_1node_device_t3.csv"),
], ids=["exact", "mc-repeats", "circuit", "circuit-gates-out", "qae", "qae-eigenphase",
        "lowdepth", "fit"])
def test_report_is_written_as_json_indent_2(capsys, fixtures_dir, tmp_path, monkeypatch, args):
    # the report object _dumps is given, and the file written from it, are
    # exactly what json.dumps(indent=2, sort_keys=True) makes of that object
    reports = []
    dumps = cli._dumps

    def record(value, level=0):
        if level == 0:
            reports.append(value)
        return dumps(value, level)

    monkeypatch.setattr(cli, "_dumps", record)
    args = [arg.format(model=fixtures_dir / "two_node_model.json", fixtures=fixtures_dir,
                       tmp=tmp_path) for arg in args]
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 0, capsys.readouterr().err
    [report] = reports
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert dumps(report) + "\n" == expected
    assert out.read_text(encoding="utf-8") == expected


_JSON_SCALARS = (st.none() | st.booleans() | st.floats() | st.integers(-10 ** 40, 10 ** 40)
                 | st.text(max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_dumps_equals_json_indent_2_property(value):
    # floats include inf and NaN, text non-ASCII characters, containers empty ones
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_circuit_gate_listing_round_trips(capsys, fixtures_dir, tmp_path):
    gates_file = tmp_path / "gates.txt"
    report = report_of(capsys, "circuit", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "2",
                       "--gates-out", str(gates_file))
    text = gates_file.read_text()
    # the listing is written once, to the file; the report records where and how long
    results = report["results"]
    assert "gates" not in results
    assert results["gates_out"] == str(gates_file)
    assert results["gates_bytes"] == gates_file.stat().st_size == len(text.encode("utf-8"))
    parsed = parse_gates(text)
    angles = sorted(round(g.angle, 3) for g in parsed.gates)
    assert angles == sorted([0.927, 1.982, 0.927, 1.982, 1.055, 1.391, -1.055, 0.135])


def test_circuit_metrics_and_rerun(capsys, fixtures_dir):
    args = ("circuit", "--model", model_path(fixtures_dir, "two_node_model.json"),
            "--steps", "3", "--kind", "qae", "--config", "11", "--bits", "9")
    first = report_of(capsys, *args)
    second = report_of(capsys, *args)
    assert first["results"] == second["results"]
    assert set(first["results"]) == {"kind", "n_qubits", "gate_count", "gates"}
    metrics = first["metrics"]
    assert set(metrics) == {"distinct_gates", "max_controls", "listing_bytes", "build_s",
                            "emit_s"}
    assert first["results"]["gate_count"] == 17454
    assert metrics["distinct_gates"] == 386
    # an ancestor pattern's rotation, or the mark, plus the ancilla
    assert metrics["max_controls"] == 3
    assert metrics["listing_bytes"] == len(first["results"]["gates"].encode("utf-8"))
    assert metrics["build_s"] > 0.0 and metrics["emit_s"] > 0.0


def test_circuit_grover_kind(capsys, fixtures_dir):
    report = report_of(capsys, "circuit", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "2",
                       "--kind", "grover", "--config", "01")
    assert report["results"]["n_qubits"] == 4
    assert report["results"]["gate_count"] > 8


def test_qae_sweep_converges(capsys, fixtures_dir):
    report = report_of(capsys, "qae", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                       "--config", "11", "--bits", "3..5", "--shots", "2048", "--seed", "2")
    sweep = report["results"]["sweep"]
    assert [entry["bits"] for entry in sweep] == [3, 4, 5]
    assert sweep[0]["probability"] == pytest.approx(0.500, abs=1e-9)
    assert sweep[2]["probability"] == pytest.approx(1 / 3, abs=0.03)


@pytest.mark.parametrize("mode", [("--bits", "3..5"), ("--eigenphase",)],
                         ids=["sweep", "eigenphase"])
def test_qae_metrics_and_rerun(capsys, fixtures_dir, mode):
    args = ("qae", "--model", model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
            "--config", "11", "--seed", "4", *mode)
    first = report_of(capsys, *args)
    second = report_of(capsys, *args)
    assert first["results"] == second["results"]
    metrics = first["metrics"]
    assert set(metrics) == {"simulated_qubits", "dtype", "state_bytes", "plane_residual"}
    assert metrics["simulated_qubits"] == 6
    assert metrics["dtype"] == "float64"
    assert metrics["state_bytes"] == 8 * 2 ** 6
    assert 0.0 <= metrics["plane_residual"] < 1e-8


def test_out_rewrites_a_longer_report_exactly(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("x" * 100_000)
    _write('{"short": 1}\n', str(out))
    assert out.read_text(encoding="utf-8") == '{"short": 1}\n'


def test_qae_eigenphase(capsys, fixtures_dir):
    report = report_of(capsys, "qae", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                       "--config", "10", "--eigenphase")
    eigen = report["results"]["eigenphase"]
    assert eigen["theta"] == pytest.approx(0.975, abs=1e-3)
    assert eigen["lambda_plus"] == pytest.approx([0.562, 0.827], abs=1e-3)
    assert eigen["probability"] == pytest.approx(0.220, abs=1e-3)


def test_lowdepth_single_power_estimate(capsys, fixtures_dir):
    report = report_of(capsys, "lowdepth", "--model",
                       model_path(fixtures_dir, "one_node_model.json"), "--steps", "3",
                       "--config", "1", "--schedule", "0", "--shots", "20000", "--seed", "4")
    trace = report["results"]["trace"]
    assert trace["schedule"] == [0]
    assert trace["marked"][0] / trace["shots"][0] == pytest.approx(0.588, abs=0.02)
    assert report["results"]["exact_probability"] == pytest.approx(0.588, abs=1e-9)


def test_lowdepth_with_noise_fit(capsys, fixtures_dir):
    report = report_of(capsys, "lowdepth", "--model",
                       model_path(fixtures_dir, "one_node_model.json"), "--steps", "3",
                       "--config", "1", "--schedule", "0..8", "--shots", "2000",
                       "--seed", "3", "--noise-a", "0.977")
    fit = report["results"]["noise_fit"]
    assert fit["probability"] == pytest.approx(0.588, abs=0.05)
    assert fit["theta_half"] == pytest.approx(fit["theta"] / 2.0)
    assert report["metrics"]["noise_fit"]["converged"] is True
    assert report["metrics"]["sine_fit"]["n_starts"] == 4


def test_fit_device_trace(capsys, fixtures_dir):
    report = report_of(capsys, "fit", "--trace",
                       model_path(fixtures_dir, "trace_1node_device_t3.csv"))
    assert report["results"]["noise_fit"]["probability"] == pytest.approx(0.581, abs=0.02)
    assert set(report["results"]) == {"trace", "sine_fit", "noise_fit"}
    assert set(report["results"]["noise_fit"]) == {
        "theta", "theta_half", "a", "f", "probability", "loss"}
    for name, n_starts in (("sine_fit", 4), ("noise_fit", 12)):
        metrics = report["metrics"][name]
        assert metrics["converged"] is True
        assert metrics["n_starts"] == n_starts
        assert 0 < metrics["iterations"] <= 100


def test_fit_warns_when_not_converged(capsys, fixtures_dir, monkeypatch):
    from cascadeq import lowdepth

    monkeypatch.setattr(lowdepth, "_MAX_ITERS", 1)
    code = main(["fit", "--trace", model_path(fixtures_dir, "trace_1node_noisy_t2.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ("warning: sine_fit did not converge in 1 iterations\n"
                            "warning: noise_fit did not converge in 1 iterations\n")
    report = json.loads(captured.out)
    assert report["metrics"] == {
        "sine_fit": {"iterations": 1, "converged": False, "n_starts": 4},
        "noise_fit": {"iterations": 1, "converged": False, "n_starts": 12},
    }


def test_fit_with_a_singular_solver_system_exits_0(capsys, tmp_path):
    # e^{-a l} near its bound at l = 983 makes some start's J^T J singular
    # in floating point; a batched solve used to raise LinAlgError here
    path = tmp_path / "trace.csv"
    path.write_text("l,shots,marked\n88,67,66\n983,179,77\n")
    report = report_of(capsys, "fit", "--trace", str(path))
    assert set(report["results"]) == {"trace", "sine_fit", "noise_fit"}


def test_parser_is_built_once_and_each_call_parses_afresh(capsys, fixtures_dir):
    trace = model_path(fixtures_dir, "trace_1node_noisy_t3.csv")
    pinned = report_of(capsys, "fit", "--trace", trace, "--fix-f", "0.5")
    free = report_of(capsys, "fit", "--trace", trace)
    assert pinned["inputs"]["fix_f"] == 0.5
    assert free["inputs"]["fix_f"] is None
    assert free["results"]["noise_fit"]["f"] != 0.5
    assert cli._build_parser() is cli._build_parser()


def test_fit_noisy_trace(capsys, fixtures_dir):
    report = report_of(capsys, "fit", "--trace",
                       model_path(fixtures_dir, "trace_1node_noisy_t4.csv"))
    assert report["results"]["noise_fit"]["probability"] == pytest.approx(0.703, abs=0.03)


def test_fit_recovers_exact_trace(capsys, tmp_path):
    from cascadeq import predict

    theta, a, f = 1.1, 0.3, 0.4
    shots = 100000
    path = tmp_path / "exact.csv"
    lines = ["l,shots,marked"]
    for power in range(9):
        lines.append(f"{power},{shots},{shots * predict(theta, power, a, f)!r}")
    path.write_text("\n".join(lines) + "\n")
    report = report_of(capsys, "fit", "--trace", str(path))
    fit = report["results"]["noise_fit"]
    assert fit["theta"] == pytest.approx(theta, abs=1e-4)
    assert fit["a"] == pytest.approx(a, abs=1e-4)
    assert fit["f"] == pytest.approx(f, abs=1e-4)


def test_plotdata_schedule_series(capsys, fixtures_dir, tmp_path):
    report_file = tmp_path / "report.json"
    code, _ = run_cli(capsys, "lowdepth", "--model",
                      model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                      "--config", "00", "--schedule", "0..8", "--shots", "30",
                      "--seed", "1", "--out", str(report_file))
    assert code == 0
    code, out = run_cli(capsys, "plotdata", "--report", str(report_file),
                        "--figure", "schedule")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "series,x,y"
    exact_rows = [l for l in lines if l.startswith("exact,")]
    first = exact_rows[0].split(",")
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(0.140, abs=5e-4)
    assert any(l.startswith("measured,") for l in lines)
    assert any(l.startswith("fitted,") for l in lines)


def test_plotdata_spread_and_bits(capsys, fixtures_dir, tmp_path):
    mc_file = tmp_path / "mc.json"
    run_cli(capsys, "mc", "--model", model_path(fixtures_dir, "two_node_model.json"),
            "--steps", "3", "--runs", "1000", "--repeats", "2", "--out", str(mc_file))
    code, out = run_cli(capsys, "plotdata", "--report", str(mc_file), "--figure", "spread")
    assert code == 0
    assert out.splitlines()[0] == "series,x,y"
    # wrong figure for this report: missing series
    code, _ = run_cli(capsys, "plotdata", "--report", str(mc_file), "--figure", "schedule")
    assert code == 1


@pytest.mark.parametrize("figure,report", [
    ("spread", [1, 2]),
    ("spread", {"results": {"runs": 10, "repeats": [{"counts": {"1": 3}}]}}),
    ("bits", {"results": {"sweep": [{"bits": 3}]}}),
    ("schedule", {"results": {"trace": {"schedule": [0, 1]}}}),
    ("schedule", {"results": {"trace": {"schedule": [0, 1], "shots": [10], "marked": [3]}}}),
    ("schedule", {"results": {"trace": {"schedule": [0, 1], "shots": [10, 0],
                                        "marked": [3, 0]}}}),
    ("schedule", {"results": {"trace": {"schedule": [0, float("inf")], "shots": [10, 10],
                                        "marked": [3, 4]}}}),
    ("schedule", {"results": {"trace": {"schedule": [0, 1.5], "shots": [10, 10],
                                        "marked": [3, 4]}}}),
    ("schedule", {"results": {"trace": {"schedule": [0, 1], "shots": [10.8, 10],
                                        "marked": [3, 4]}}}),
], ids=["top-level-list", "repeat-without-estimates", "sweep-without-probability",
        "trace-without-counts", "trace-misaligned", "trace-zero-shots", "trace-infinite-power",
        "trace-fractional-power", "trace-fractional-shots"])
def test_plotdata_malformed_report_exits_1(capsys, tmp_path, figure, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["plotdata", "--report", str(path), "--figure", figure])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error (parse-error): ")
    assert captured.out == ""


@pytest.mark.parametrize("curves", [{"exact_theta": 0.7},
                                    {"noise_fit": {"theta": 0.7, "a": 0.1, "f": 0.5}}])
def test_plotdata_schedule_past_the_byte_budget_exits_2(capsys, tmp_path, curves):
    path = tmp_path / "report.json"
    trace = {"schedule": [0, 10 ** 9], "shots": [10, 10], "marked": [3, 4]}
    path.write_text(json.dumps({"results": {"trace": trace, **curves}}))
    out = tmp_path / "rows.csv"
    code = main(["plotdata", "--report", str(path), "--figure", "schedule", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit): ")
    assert captured.out == ""
    assert not out.exists()
    # without a curve the figure is the measured rows alone, at any power
    path.write_text(json.dumps({"results": {"trace": trace}}))
    code, printed = run_cli(capsys, "plotdata", "--report", str(path), "--figure", "schedule")
    assert code == 0
    assert printed.splitlines()[1:] == ["measured,0,0.3", f"measured,{10 ** 9},0.4"]


@pytest.mark.parametrize("verb,flag", [("exact", "--model"), ("fit", "--trace"),
                                       ("plotdata", "--report")])
def test_file_not_utf8_exits_1(capsys, tmp_path, verb, flag):
    path = tmp_path / "input"
    path.write_bytes(b"l,shots,marked\n\xff\n")
    extra = {"exact": ["--steps", "1"], "fit": [], "plotdata": ["--figure", "bits"]}[verb]
    code = main([verb, flag, str(path), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith("error (parse-error)")


def test_out_into_a_missing_directory_exits_1(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "missing" / "r.json"
    code = main(["fit", "--trace", model_path(fixtures_dir, "trace_2node_c00.csv"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error (io): ")
    assert not out.parent.exists()


def test_exit_codes(capsys, fixtures_dir, tmp_path, monkeypatch):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{not json")
    code, _ = run_cli(capsys, "exact", "--model", str(bad_model), "--steps", "1")
    assert code == 1

    missing = tmp_path / "missing.json"
    code, _ = run_cli(capsys, "exact", "--model", str(missing), "--steps", "1")
    assert code == 1

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(
        {"nodes": [{"name": "a", "p_fail": 2.0, "p_recover": 0.0}]}))
    code, _ = run_cli(capsys, "exact", "--model", str(invalid), "--steps", "1")
    assert code == 1

    code, _ = run_cli(capsys, "qae", "--model",
                      model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                      "--config", "11", "--bits", "22")
    assert code == 2  # 2^22 outcomes exceed the byte budget

    import cascadeq.cli as cli_module

    def boom(trace):
        raise FitDivergedError("forced")

    monkeypatch.setattr(cli_module, "fit_sine", boom)
    code, _ = run_cli(capsys, "fit", "--trace",
                      model_path(fixtures_dir, "trace_2node_c00.csv"))
    assert code == 3

    code, _ = run_cli(capsys, "bogus-verb")
    assert code == 1


@pytest.mark.parametrize("args", [
    ("mc", "--runs", "100", "--seed", "-1"),
    ("mc", "--runs", "100", "--repeats", "0"),
    ("lowdepth", "--config", "11", "--shots", "10", "--seed", "-1"),
    ("qae", "--config", "11", "--seed", "-1"),
], ids=["mc-negative-seed", "mc-zero-repeats", "lowdepth-negative-seed", "qae-negative-seed"])
def test_bad_seed_or_repeats_is_a_validation_error(capsys, fixtures_dir, args):
    code = main([args[0], "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "2", *args[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error (invalid-")
    assert captured.out == ""


def test_qae_negative_bits_is_invalid_bits(capsys, fixtures_dir):
    # bits is checked before the seed (seed, bits) is built from it
    code = main(["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--config", "11", "--bits", "-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error (invalid-bits)")
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ("lowdepth", "--shots", "10", "--schedule", "0..1000000000000"),
    ("qae", "--bits", "3,4..1000000000000"),
], ids=["lowdepth-schedule", "qae-bits"])
def test_int_list_past_the_byte_budget_exits_2(capsys, fixtures_dir, monkeypatch, args):
    # the ranges are counted before any is expanded; a parser that expanded
    # first would meet this guard instead of allocating terabytes
    import cascadeq.cli as cli_module

    def bounded_range(lo, hi):
        assert hi - lo <= 10 ** 6, "range expanded before its entries were counted"
        return range(lo, hi)

    monkeypatch.setattr(cli_module, "range", bounded_range, raising=False)
    code = main([args[0], "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--config", "11", *args[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_int_list_at_the_byte_budget_is_parsed(monkeypatch):
    import cascadeq.cli as cli_module
    import cascadeq.errors as errors_module

    monkeypatch.setattr(errors_module, "DENSE_BYTE_BUDGET", 10 * cli_module._LIST_ENTRY_PEAK)
    assert cli_module._parse_int_list("0..4, 7,9..11") == [0, 1, 2, 3, 4, 7, 9, 10, 11]
    assert cli_module._parse_int_list("0..9") == list(range(10))
    with pytest.raises(ResourceLimitError):
        cli_module._parse_int_list("0..10")


@pytest.mark.parametrize("k,args", [
    (14, ("exact", "--steps", "1")),
    (6, ("qae", "--steps", "5", "--config", "1" * 6, "--eigenphase")),
], ids=["exact-14-nodes", "eigenphase-30-qubits"])
def test_dense_engine_over_byte_budget_exits_2(capsys, tmp_path, k, args):
    # the 14-node step matrix (1.5 * 8 * 4^14 bytes) and the 30-qubit
    # statevector (16 * 2^30 bytes) are refused before they are allocated
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers([0.1] * k, [0.5] * k, {(1, 2): 0.3})))
    code = main([args[0], "--model", str(path), *args[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_eigenphase_over_its_peak_budget_exits_2_before_allocating(capsys, tmp_path,
                                                                   monkeypatch):
    # a 25-qubit state is 512 MiB, and a statevector run is budgeted at 2.65
    # states, past the 1 GiB budget; the refusal must come before the run
    import cascadeq.qae

    def no_run(*args, **kwargs):
        raise AssertionError("the statevector was allocated")

    monkeypatch.setattr(cascadeq.qae, "run", no_run)
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers([0.1] * 25, [0.5] * 25, {})))
    code = main(["qae", "--model", str(path), "--steps", "1", "--config", "*" * 24 + "1",
                 "--eigenphase"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_lowdepth_past_2_53_shots_exits_2_before_the_model_runs(capsys, fixtures_dir,
                                                                 monkeypatch):
    # a trace holds its counts as floats, exact up to 2^53; one shot more is
    # refused before the model runs
    import cascadeq.lowdepth

    def no_plane(*args, **kwargs):
        raise AssertionError("the model was run")

    monkeypatch.setattr(cascadeq.lowdepth, "_plane", no_plane)
    code = main(["lowdepth", "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--config", "11", "--schedule", "0..8",
                 "--shots", str((1 << 53) + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_qae_past_the_outcome_budget_exits_2_before_the_plane(capsys, fixtures_dir,
                                                              monkeypatch):
    # 2^40 outcomes pass the byte budget; the refusal must come before the
    # Grover plane is computed
    import cascadeq.qae

    def no_plane(*args, **kwargs):
        raise AssertionError("the Grover plane was computed")

    monkeypatch.setattr(cascadeq.qae, "_plane", no_plane)
    code = main(["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--config", "11", "--bits", "40"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def _count_model_runs(monkeypatch) -> list:
    import cascadeq.qae

    runs = []
    model_run = cascadeq.qae.run

    def counted(*args, **kwargs):
        runs.append(1)
        return model_run(*args, **kwargs)

    monkeypatch.setattr(cascadeq.qae, "run", counted)
    return runs


def test_qae_sweep_runs_the_model_once(capsys, fixtures_dir, monkeypatch):
    # only the 6 model qubits are simulated; up to 15 ancillas are budgeted
    # as outcomes, not as qubits of a run
    runs = _count_model_runs(monkeypatch)
    for top in (9, 15):
        report = report_of(capsys, "qae", "--model",
                           model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                           "--config", "11", "--bits", f"3..{top}")
        assert [entry["bits"] for entry in report["results"]["sweep"]] == list(range(3, top + 1))
        assert report["metrics"]["simulated_qubits"] == 6
    assert len(runs) == 2


def test_qae_sweep_past_the_outcome_budget_exits_2_before_the_model_runs(
        capsys, fixtures_dir, monkeypatch):
    # the budget holds the outcomes of bits 3..15 and no more: one bit count
    # more is refused before the model runs
    import cascadeq.errors
    import cascadeq.qae

    outcomes = sum(1 << bits for bits in range(3, 16))
    monkeypatch.setattr(cascadeq.errors, "DENSE_BYTE_BUDGET",
                        cascadeq.qae._OUTCOME_PEAK * outcomes)
    runs = _count_model_runs(monkeypatch)
    argv = ["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
            "--steps", "3", "--config", "11"]
    code = main([*argv, "--bits", "3..16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""
    assert runs == []
    report_of(capsys, *argv, "--bits", "3..15")
    assert len(runs) == 1


def test_qae_outcome_peak_covers_the_verb(capsys, fixtures_dir, tmp_path):
    # every outcome drawn: at 2^63 - 1 shots no outcome of 12 or 14 bits has
    # a probability too small to be drawn, and each count has 19 digits
    import cascadeq.qae

    out = tmp_path / "qae.json"

    def verb(bits):
        code = main(["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
                     "--steps", "3", "--config", "11", "--bits", str(bits),
                     "--shots", str((1 << 63) - 1), "--out", str(out)])
        assert code == 0

    verb(3)  # the first call's one-time imports and caches are not per outcome
    for bits in (12, 14):
        peak = traced_peak(lambda: verb(bits)) / (1 << bits)
        counts = json.loads(out.read_text())["results"]["sweep"][0]["outcome_counts"]
        assert len(counts) == 1 << bits
        assert peak <= cascadeq.qae._OUTCOME_PEAK <= 1.3 * peak, (bits, peak)


def test_qae_shots_past_an_int64_exit_2_before_the_model_runs(capsys, fixtures_dir, monkeypatch):
    runs = _count_model_runs(monkeypatch)
    argv = ["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
            "--steps", "3", "--config", "11", "--bits", "3"]
    code = main([*argv, "--shots", str(1 << 63)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""
    assert runs == []
    report = report_of(capsys, *argv, "--shots", str((1 << 63) - 1))
    assert sum(report["results"]["sweep"][0]["outcome_counts"].values()) == (1 << 63) - 1


def test_qae_past_a_float_sized_state_exits_2(capsys, fixtures_dir, tmp_path):
    # 2^1100 phase-estimation outcomes: that many bytes are past what a float
    # can hold
    out = tmp_path / "report.json"
    code = main(["qae", "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--config", "11", "--bits", "1100", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""
    assert not out.exists()


def _no_gates(monkeypatch):
    import cascadeq.circuit

    def no_gate(*args, **kwargs):
        raise AssertionError("a gate list was built")

    monkeypatch.setattr(cascadeq.circuit, "Gate", no_gate)


def test_model_circuit_past_the_gate_budget_exits_2_before_building(capsys, tmp_path,
                                                                     monkeypatch):
    # node 1 has 20 trigger ancestors: 2^20 corrections per step, past the
    # byte budget at any horizon above 1
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers(
        [0.1] * 21, [0.5] * 21, {(m, 1): 0.2 for m in range(2, 22)})))
    _no_gates(monkeypatch)
    code = main(["circuit", "--model", str(path), "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_qae_circuit_past_the_gate_budget_exits_2_before_building(capsys, fixtures_dir,
                                                                   monkeypatch):
    # 30 ancillas would append 2^30 - 1 Grover blocks
    _no_gates(monkeypatch)
    code = main(["circuit", "--model", model_path(fixtures_dir, "two_node_model.json"),
                 "--steps", "3", "--kind", "qae", "--config", "11", "--bits", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_mc_past_63_nodes_exits_2(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers([0.1] * 64, [0.5] * 64, {})))
    code = main(["mc", "--model", str(path), "--steps", "1", "--runs", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error (resource-limit)")
    assert captured.out == ""


def test_mc_spread_lists_only_observed_configurations(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers([0.1] * 18, [0.5] * 18, {(1, 2): 0.3})))
    report = report_of(capsys, "mc", "--model", str(path), "--steps", "3", "--runs", "10",
                       "--seed", "4", "--repeats", "2")
    results = report["results"]
    seen = set().union(*(rep["counts"] for rep in results["repeats"]))
    assert 1 <= len(results["spread"]) <= 20
    assert set(results["spread"]) == seen


def test_config_length_checked(capsys, fixtures_dir):
    code, _ = run_cli(capsys, "qae", "--model",
                      model_path(fixtures_dir, "two_node_model.json"), "--steps", "3",
                      "--config", "1", "--eigenphase")
    assert code == 1
