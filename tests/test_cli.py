import json

import pytest

from cascadeq import FitDivergedError, NetworkModel, parse_gates, save_model
from cascadeq.cli import main


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


def test_circuit_gate_listing_round_trips(capsys, fixtures_dir, tmp_path):
    gates_file = tmp_path / "gates.txt"
    report = report_of(capsys, "circuit", "--model",
                       model_path(fixtures_dir, "two_node_model.json"), "--steps", "2",
                       "--gates-out", str(gates_file))
    text = gates_file.read_text()
    assert report["results"]["gates"] == text
    parsed = parse_gates(text)
    angles = sorted(round(g.angle, 3) for g in parsed.gates)
    assert angles == sorted([0.927, 1.982, 0.927, 1.982, 1.055, 1.391, -1.055, 0.135])


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
    assert report["metrics"]["sine_fit"]["n_starts"] == 39


def test_fit_device_trace(capsys, fixtures_dir):
    report = report_of(capsys, "fit", "--trace",
                       model_path(fixtures_dir, "trace_1node_device_t3.csv"))
    assert report["results"]["noise_fit"]["probability"] == pytest.approx(0.581, abs=0.02)
    assert set(report["results"]) == {"trace", "sine_fit", "noise_fit"}
    assert set(report["results"]["noise_fit"]) == {
        "theta", "theta_half", "a", "f", "probability", "loss"}
    for name, n_starts in (("sine_fit", 39), ("noise_fit", 117)):
        metrics = report["metrics"][name]
        assert metrics["converged"] is True
        assert metrics["n_starts"] == n_starts
        assert 0 < metrics["iterations"] <= 100


def test_fit_warns_when_not_converged(capsys, fixtures_dir, monkeypatch):
    import cascadeq.cli as cli_module
    from cascadeq import FitConfig, fit_noise_model

    monkeypatch.setattr(cli_module, "fit_noise_model", lambda trace, fix_f=None: fit_noise_model(
        trace, config=FitConfig(max_iters=1), fix_f=fix_f))
    code = main(["fit", "--trace", model_path(fixtures_dir, "trace_1node_noisy_t2.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: noise_fit did not converge in 1 iterations\n"
    report = json.loads(captured.out)
    assert report["metrics"]["noise_fit"] == {"iterations": 1, "converged": False,
                                              "n_starts": 117}
    assert report["metrics"]["sine_fit"]["converged"] is True


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
                      "--config", "11", "--bits", "15")
    assert code == 2  # 6 + 15 qubits exceed the default cap

    import cascadeq.cli as cli_module

    def boom(trace, config=None):
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


@pytest.mark.parametrize("k,args", [
    (14, ("exact", "--steps", "1")),
    (6, ("qae", "--steps", "5", "--config", "1" * 6, "--eigenphase", "--qubit-cap", "40")),
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
    # a 23-qubit state is 128 MiB, but the eigenphase peaks at about nine
    # states, past the 1 GiB budget; the refusal must come before the run
    import cascadeq.qae

    def no_run(*args, **kwargs):
        raise AssertionError("the statevector was allocated")

    monkeypatch.setattr(cascadeq.qae, "run", no_run)
    path = tmp_path / "model.json"
    path.write_text(save_model(NetworkModel.from_triggers([0.1] * 23, [0.5] * 23, {})))
    code = main(["qae", "--model", str(path), "--steps", "1", "--config", "*" * 22 + "1",
                 "--eigenphase", "--qubit-cap", "40"])
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
