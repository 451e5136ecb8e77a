"""The ``awsde run`` front end: config resolution, artifacts, manifests."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from awsde import ConfigurationError
from awsde.cli import ExperimentConfig, main, run_experiment, validate_manifest


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_success_prints_summary_json(tmp_path, capsys):
    code, out, err = _run(capsys, "run", "counterexamples", "--out", str(tmp_path))
    assert code == 0
    assert err == ""
    summary = json.loads(out)
    assert summary["experiment"] == "counterexamples"
    assert summary["outputs"] == ["counterexamples.json"]
    assert (tmp_path / "manifest.json").exists()


def test_unknown_experiment_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "no_such_experiment", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_scheme_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig_disc", "--scheme", "milstein", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_errors_are_machine_readable(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiment": "nope"}))
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigurationError"
    assert "nope" in payload["message"]


def test_missing_experiment_rejected(capsys):
    code, _, err = _run(capsys, "run")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigurationError"


def test_unknown_config_field_rejected(tmp_path, capsys):
    config = tmp_path / "extra.json"
    config.write_text(json.dumps({"experiment": "fig_disc", "bogus": 1}))
    code, _, err = _run(capsys, "run", "--config", str(config))
    assert code == 2
    assert "bogus" in json.loads(err)["message"]


def test_malformed_config_file_rejected(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = _run(capsys, "run", "--config", str(config))
    assert code == 2
    assert json.loads(err)["error"] == "ConfigurationError"
    missing = tmp_path / "absent.json"
    code, _, err = _run(capsys, "run", "--config", str(missing))
    assert code == 2
    assert "cannot read" in json.loads(err)["message"]


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "counterexamples",
        "seed": 3,
        "out": str(tmp_path / "from_file"),
    }))
    out_dir = tmp_path / "from_flag"
    code, _, _ = _run(
        capsys, "run", "--config", str(config), "--seed", "9", "--out", str(out_dir)
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["experiment"] == "counterexamples"
    assert not (tmp_path / "from_file").exists()


def test_counterexamples_report_values(tmp_path, capsys):
    code, _, _ = _run(capsys, "run", "counterexamples", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "counterexamples.json").read_text())
    two = report["two_stage"]
    assert two["kr_cost"]["fraction"] == "3"
    assert two["alt_cost"]["fraction"] == "2"
    assert Fraction(two["optimal"]["fraction"]) <= 2
    assert two["kr_strictly_suboptimal"] is True
    assert two["marginals_certified"] is True
    for entry in report["perturbed_start"]:
        assert entry["match"] is True
        eps, p = Fraction(entry["eps"]), entry["p"]
        assert Fraction(entry["value"]["fraction"]) == eps**p + Fraction(2) ** (p - 1)
    for entry in report["stopping_values"]:
        eps = Fraction(entry["eps"])
        assert Fraction(entry["value_perturbed"]["fraction"]) == (1 - eps) / 2
        assert Fraction(entry["value_unperturbed"]["fraction"]) == 0


def test_manifest_validates_and_rejects_tampering(tmp_path, capsys):
    _run(capsys, "run", "counterexamples", "--out", str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    validate_manifest(manifest)
    for breakage in (
        lambda m: m.pop("outputs"),
        lambda m: m.update(experiment="bogus"),
        lambda m: m.update(wall_time_seconds="fast"),
        lambda m: m.update(warnings=[1]),
        lambda m: m["versions"].pop("numpy"),
    ):
        broken = json.loads((tmp_path / "manifest.json").read_text())
        breakage(broken)
        with pytest.raises(ConfigurationError):
            validate_manifest(broken)


def test_transform_dump_columns(tmp_path, capsys):
    code, _, _ = _run(capsys, "run", "transform_dump", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "transform.csv").read_text().splitlines()
    assert lines[0] == "x,g,g_prime,g_second,g_inverse"
    assert len(lines) == 2002
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # the default model is the discontinuous-drift builtin
    assert manifest["report"]["model"] == "sign_drift"
    assert manifest["report"]["breakpoints"] == [1.0]
    row = lines[1].split(",")
    assert len(row) == 5
    float(row[1])


def test_fig_disc_tiny_run(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "fig_disc", "--steps", "64", "--paths", "64",
        "--seed", "5", "--out", str(tmp_path),
    )
    assert code == 0
    raw = (tmp_path / "aw_estimates.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "k_or_delta,estimate,stderr,paths,h,seed"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert int(first[3]) == 64
    assert int(first[5]) == 5
    # the drift gap grows in k, so the top of the sweep clearly exceeds it
    assert float(lines[11].split(",")[1]) > float(lines[2].split(",")[1])


def test_rerun_is_byte_identical(tmp_path, capsys):
    args = ("run", "fig_disc", "--steps", "32", "--paths", "48", "--seed", "7")
    first, second = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, *args, "--out", str(first))[0] == 0
    assert _run(capsys, *args, "--out", str(second), "--workers", "3")[0] == 0
    assert (first / "aw_estimates.csv").read_bytes() == (second / "aw_estimates.csv").read_bytes()


@pytest.mark.parametrize("experiment", ["fig_disc", "fig_cir"])
def test_sweep_draws_each_block_once(experiment, tmp_path, monkeypatch):
    # 600 paths are three blocks; every perturbed leg is stepped from the
    # block's one draw (pairwise estimates drew 66 and 90 times)
    import awsde.schemes

    calls = []
    original = awsde.schemes.sample_increment_block

    def counting(grid, seed, start, count):
        calls.append((start, count))
        return original(grid, seed, start, count)

    monkeypatch.setattr(awsde.schemes, "sample_increment_block", counting)
    run_experiment(ExperimentConfig(experiment, steps=16, paths=600, out=str(tmp_path)))
    assert calls == [(0, 256), (256, 256), (512, 88)]


def test_fig_cir_tiny_run(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "fig_cir", "--steps", "64", "--paths", "32", "--out", str(tmp_path),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [
        "aw_estimates_diffusion.csv",
        "aw_estimates_level.csv",
        "aw_estimates_speed.csv",
    ]
    assert manifest["report"]["scheme"] == "sym-em"
    curves = manifest["report"]["curves"]
    assert [point["label"] for point in curves["diffusion"]] == [0.1, 0.2, 0.3, 0.4, 0.5]
    for name in manifest["outputs"]:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 6


def test_rates_tiny_run(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "rates", "--model", "cubic", "--p", "2",
        "--steps", "2048", "--paths", "64", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "rate_curve.csv").read_text().splitlines()
    assert lines[0] == "h,err_sup,err_int,stderr"
    assert len(lines) == 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    report = manifest["report"]
    assert report["model"] == "cubic"
    assert report["h_ref"] == 2.0**-11
    assert report["fit"] is not None
    assert 0.0 < report["fit"]["slope"] < 1.5
    assert set(report["fit"]) == {
        "slope", "intercept", "residual_rms", "full_slope", "dropped_largest_h",
    }


def test_rates_keep_only_step_sizes_coarser_than_h_ref(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "rates", "--model", "cubic", "--steps", "256", "--paths", "16",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "rate_curve.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [2.0**-5, 2.0**-6, 2.0**-7]


def test_rates_refuse_steps_that_leave_no_rate(tmp_path, capsys):
    code, out, err = _run(
        capsys, "run", "rates", "--model", "cubic", "--steps", "32", "--paths", "16",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigurationError"
    assert "--steps 32" in payload["message"]
    assert not (tmp_path / "rate_curve.csv").exists()


def test_stopping_tiny_run(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "stopping", "--paths", "5", "--seed", "2", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "stopping.json").read_text())
    assert report["instances"] == 5
    assert report["all_hold"] is True
    assert len(report["sweep"]) == 5
    for row in report["sweep"]:
        assert row["lhs"] <= row["rhs"] + 1e-9
    assert report["exact_examples"][0]["value_perturbed"]["fraction"] == "9/20"


def test_dump_paths_and_transform_flags(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "fig_disc", "--steps", "16", "--paths", "8",
        "--dump-paths", "3", "--dump-transform", "--out", str(tmp_path),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "paths.csv" in manifest["outputs"]
    assert "transform.csv" in manifest["outputs"]
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_index,k,t,value"
    assert len(lines) == 1 + 3 * 17
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0.0"]


def test_refused_extras_write_nothing(tmp_path, capsys):
    # --dump-transform on a model without a transform is refused before the
    # experiment writes its artifacts, so no directory is left without a manifest
    out = tmp_path / "run"
    config = ExperimentConfig(experiment="fig_cir", steps=64, paths=40, model="cir",
                              scheme="sym-em", dump_paths=3, dump_transform=True, out=str(out))
    with pytest.raises(ConfigurationError, match="growth_disc"):
        run_experiment(config)
    assert not out.exists()
    code, _, err = _run(capsys, "run", "fig_cir", "--steps", "64", "--paths", "40",
                        "--model", "cir", "--scheme", "sym-em", "--dump-paths", "3",
                        "--dump-transform", "--out", str(out))
    assert code == 2
    assert json.loads(err)["error"] == "ConfigurationError"
    assert not out.exists()


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError, match="experiment"):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigurationError, match="preset"):
        ExperimentConfig(experiment="rates", preset="huge")
    with pytest.raises(ConfigurationError, match="seed"):
        ExperimentConfig(experiment="rates", seed=-1)
    with pytest.raises(ConfigurationError, match="paths"):
        ExperimentConfig(experiment="rates", paths=0)
    with pytest.raises(ConfigurationError, match="scheme"):
        ExperimentConfig(experiment="rates", scheme="milstein")
    with pytest.raises(ConfigurationError, match="p must"):
        ExperimentConfig(experiment="rates", p=0.5)
    with pytest.raises(ConfigurationError, match="workers"):
        ExperimentConfig(experiment="rates", workers=0)


def test_experiment_config_refuses_infinite_p():
    for p in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="p must be finite"):
            ExperimentConfig(experiment="rates", p=p)


def test_run_experiment_returns_the_written_manifest(tmp_path):
    config = ExperimentConfig(experiment="counterexamples", out=str(tmp_path))
    manifest = run_experiment(config)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == on_disk
    assert manifest["config"]["preset"] == "desk"
    assert manifest["wall_time_seconds"] >= 0.0


def test_module_entry_point_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "awsde", "run", "counterexamples", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["experiment"] == "counterexamples"
    assert summary["outputs"] == ["counterexamples.json"]
    assert summary["out"] == str(tmp_path)
    assert (tmp_path / "counterexamples.json").exists()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        ["awsde", "run", "counterexamples", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["outputs"] == ["counterexamples.json"]
    assert (tmp_path / "counterexamples.json").exists()
