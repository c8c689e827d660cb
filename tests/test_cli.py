import random

import yaml

import pytest

from faaslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main, read_csv
from faaslab.config import load_experiment
from faaslab.nnet import NetworkSpec, ParameterStore


def write_config(tmp_path, **extra):
    cfg = {
        "preset": "desk",
        "output_dir": str(tmp_path / "run"),
        "applications": ["primary"],
        "workload": {"duration": 30, "workloads_per_band": 2,
                     "train_pool_size": 2, "calibration_per_band": 2},
        "train": {"workers": 1, "episodes": 2, "update_freq": 3, "seed": 3,
                  "sync_mode": "deterministic", "hidden": [16, 16]},
        "dqn": {"episodes": 2, "batch_size": 4, "buffer_capacity": 32,
                "seed": 3, "hidden": [8, 8]},
    }
    cfg.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def no_timestamp(path):
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.startswith("# timestamp="))


@pytest.fixture
def workspace(tmp_path):
    return write_config(tmp_path), tmp_path / "run"


class TestCalibrate:
    def test_writes_bounds_and_reruns_identically(self, workspace):
        config, run_dir = workspace
        assert main(["calibrate", "--config", str(config)]) == EXIT_OK
        path = run_dir / "calibration.yaml"
        first = path.read_text()
        assert main(["calibrate", "--config", str(config)]) == EXIT_OK
        assert path.read_text() == first
        data = yaml.safe_load(first)
        assert set(data) == {"rfrt", "rfr", "cost"}


class TestTrain:
    def test_requires_calibration(self, workspace):
        config, _ = workspace
        assert main(["train", "--config", str(config)]) == EXIT_RUNTIME

    def test_trains_and_is_deterministic(self, workspace):
        config, run_dir = workspace
        assert main(["calibrate", "--config", str(config)]) == EXIT_OK
        outputs = []
        for _ in range(2):
            assert main(["train", "--config", str(config), "--beta", "1.0"]) == EXIT_OK
            curve = run_dir / "curves_a3c_beta1_w1.csv"
            assert (run_dir / "actor_a3c_beta1_w1.npz").exists()
            assert (run_dir / "critic_a3c_beta1_w1.npz").exists()
            outputs.append(no_timestamp(curve))
        assert outputs[0] == outputs[1]

    def test_curve_has_episode_rows(self, workspace):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config), "--beta", "0.5"])
        meta, header, rows = read_csv(run_dir / "curves_a3c_beta0.5_w1.csv")
        assert header == ["episode", "worker", "beta", "reward", "rfrt", "rfr", "cost"]
        assert len(rows) == 2  # episodes * workers
        assert all(r[2] == "0.5" for r in rows)
        assert "config_hash" in meta and "seed" in meta and "mode" in meta

    def test_paper_preset_trains(self, tmp_path):
        # 8 single-function apps; each training workload drives 4 of them
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({
            "preset": "paper",
            "output_dir": str(tmp_path / "run"),
            "workload": {"duration": 10, "workloads_per_band": 1,
                         "train_pool_size": 2, "calibration_per_band": 1},
            "train": {"workers": 1, "episodes": 2, "seed": 3,
                      "sync_mode": "deterministic", "hidden": [8, 8]},
        }))
        assert main(["calibrate", "--config", str(path)]) == EXIT_OK
        assert main(["train", "--config", str(path), "--beta", "1.0"]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "run" / "curves_a3c_beta1_w1.csv")
        assert len(rows) == 2

    def test_resume_continues(self, workspace):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert main(["train", "--config", str(config), "--resume"]) == EXIT_OK

    def test_ten_episode_smoke_run_is_quick(self, tmp_path):
        import time
        config = write_config(tmp_path,
                              train={"workers": 1, "episodes": 10,
                                     "update_freq": 3, "seed": 3,
                                     "sync_mode": "deterministic",
                                     "hidden": [16, 16]})
        main(["calibrate", "--config", str(config)])
        start = time.time()
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert time.time() - start < 300  # desk-scale smoke budget

    def test_dqn_agent(self, workspace):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config), "--agent", "dqn"]) == EXIT_OK
        assert (run_dir / "dqn_beta1.npz").exists()

    def test_dqn_outputs_carry_no_worker_count(self, tmp_path):
        config = write_config(tmp_path,
                              train={"workers": 2, "episodes": 1, "update_freq": 3,
                                     "seed": 3, "hidden": [16, 16]})
        run_dir = tmp_path / "run"
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config), "--agent", "dqn"]) == EXIT_OK
        assert (run_dir / "dqn_beta1.npz").exists()
        assert (run_dir / "curves_dqn_beta1.csv").exists()
        assert not [p.name for p in run_dir.iterdir() if "_w" in p.name]

    def test_async_sync_mode_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, train={"sync_mode": "async"})
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "sync_mode" in capsys.readouterr().err


class TestTrainSweep:
    def test_one_checkpoint_per_beta(self, tmp_path):
        config = write_config(tmp_path, beta_list=[0.0, 1.0],
                              train={"workers": 1, "episodes": 1, "update_freq": 3,
                                     "seed": 3, "hidden": [16, 16]})
        main(["calibrate", "--config", str(config)])
        assert main(["train-sweep", "--config", str(config)]) == EXIT_OK
        run = tmp_path / "run"
        assert (run / "actor_a3c_beta0_w1.npz").exists()
        assert (run / "actor_a3c_beta1_w1.npz").exists()


class TestEvaluate:
    def test_baselines_only_no_checkpoints_needed(self, workspace):
        config, run_dir = workspace
        assert main(["evaluate", "--config", str(config), "--band", "mid",
                     "--targets", "kube_cpu", "knative", "openfaas"]) == EXIT_OK
        meta, header, rows = read_csv(run_dir / "eval_workloads.csv")
        assert len(rows) == 3 * 2  # targets x workloads
        _, _, summary = read_csv(run_dir / "eval_summary.csv")
        assert len(summary) == 3  # targets x bands

    def test_relative_improvement_column(self, workspace):
        config, run_dir = workspace
        main(["evaluate", "--config", str(config), "--band", "mid",
              "--targets", "kube_cpu", "knative"])
        _, header, rows = read_csv(run_dir / "eval_summary.csv")
        i_target = header.index("target")
        i_rel = header.index("rel_cost_vs_kube_cpu")
        i_cost = header.index("cost")
        by_target = {r[i_target]: r for r in rows}
        ref = float(by_target["kube_cpu"][i_cost])
        knative = float(by_target["knative"][i_cost])
        assert float(by_target["knative"][i_rel]) == pytest.approx(
            (ref - knative) / ref)
        assert float(by_target["kube_cpu"][i_rel]) == pytest.approx(0.0)

    def test_eval_parallel_other_than_one_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, eval_parallel=2)
        assert main(["evaluate", "--config", str(config),
                     "--targets", "kube_cpu"]) == EXIT_CONFIG
        assert "eval_parallel" in capsys.readouterr().err

    def test_unknown_target_is_config_error(self, workspace):
        config, _ = workspace
        assert main(["evaluate", "--config", str(config),
                     "--targets", "wizardry"]) == EXIT_CONFIG

    def test_checkpoint_target(self, workspace):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        ckpt = run_dir / "actor_a3c_beta1_w1.npz"
        assert main(["evaluate", "--config", str(config), "--band", "low",
                     "--targets", str(ckpt), "kube_cpu"]) == EXIT_OK
        rerun_first = no_timestamp(run_dir / "eval_summary.csv")
        main(["evaluate", "--config", str(config), "--band", "low",
              "--targets", str(ckpt), "kube_cpu"])
        assert no_timestamp(run_dir / "eval_summary.csv") == rerun_first

    def test_checkpoint_target_needs_no_calibration_file(self, workspace):
        # Greedy evaluation computes no reward, so it needs no reward bounds.
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        args = ["evaluate", "--config", str(config), "--band", "low",
                "--targets", str(run_dir / "actor_a3c_beta1_w1.npz")]
        assert main(args) == EXIT_OK
        with_bounds = read_csv(run_dir / "eval_workloads.csv")[2]
        (run_dir / "calibration.yaml").unlink()
        assert main(args) == EXIT_OK
        assert read_csv(run_dir / "eval_workloads.csv")[2] == with_bounds


    def test_checkpoint_label_does_not_depend_on_the_path_given(self, workspace,
                                                                 monkeypatch):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        monkeypatch.chdir(run_dir.parent)
        bodies = []
        for ckpt in (run_dir / "actor_a3c_beta1_w1.npz", "run/actor_a3c_beta1_w1.npz"):
            assert main(["evaluate", "--config", str(config), "--band", "low",
                         "--targets", "kube_cpu", str(ckpt)]) == EXIT_OK
            bodies.append([no_timestamp(run_dir / name)
                           for name in ("eval_workloads.csv", "eval_summary.csv")])
        assert bodies[0] == bodies[1]
        _, header, rows = read_csv(run_dir / "eval_workloads.csv")
        assert [r[header.index("target")] for r in rows] == \
            ["actor_a3c_beta1_w1.npz"] * 2 + ["kube_cpu"] * 2


class TestReport:
    def test_missing_artifacts_listed(self, workspace):
        config, run_dir = workspace
        assert main(["report", "--config", str(config)]) == EXIT_CONFIG

    def test_long_format_row_counts(self, workspace):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        main(["evaluate", "--config", str(config), "--band", "mid",
              "--targets", "kube_cpu"])
        assert main(["report", "--config", str(config)]) == EXIT_OK
        _, _, curve_rows = read_csv(run_dir / "report_curves.csv")
        assert len(curve_rows) == 2 * 4  # episodes x metrics
        _, _, eval_rows = read_csv(run_dir / "report_evaluation.csv")
        assert len(eval_rows) == 2 * 3  # workloads x metrics
        first = no_timestamp(run_dir / "report_curves.csv")
        main(["report", "--config", str(config)])
        assert no_timestamp(run_dir / "report_curves.csv") == first


class TestSimulate:
    def test_writes_event_log(self, workspace):
        config, run_dir = workspace
        assert main(["simulate", "--config", str(config), "--policy", "knative",
                     "--band", "low"]) == EXIT_OK
        log = run_dir / "events_knative_low_0.log"
        lines = log.read_text().splitlines()
        assert lines
        stamp, kind, *_ = lines[0].split()
        float(stamp)
        assert kind in {"arrival", "queue", "assign", "retry", "drop", "finish",
                        "pod_create", "pod_ready", "pod_terminating", "pod_remove"}

    @pytest.mark.parametrize("index", [2, 99, -1])
    def test_workload_index_outside_band_is_config_error(self, workspace, index):
        config, _ = workspace  # two workloads per band
        assert main(["simulate", "--config", str(config),
                     "--workload-index", str(index)]) == EXIT_CONFIG


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("applications: {not: a list}\n")
        assert main(["calibrate", "--config", str(bad)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.yaml")]) == \
               EXIT_CONFIG

    def test_zero_traffic_calibration_rejected(self, tmp_path):
        config = write_config(tmp_path,
                              workload={"duration": 30, "workloads_per_band": 1,
                                        "train_pool_size": 1,
                                        "calibration_per_band": 1,
                                        "constant_rate": 0})
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("damage", ["random_bytes", "truncated", "nan_array"])
    def test_corrupt_checkpoint_is_config_error(self, workspace, capsys, damage):
        config, run_dir = workspace
        ckpt = run_dir.parent / f"{damage}.npz"
        store = ParameterStore(NetworkSpec(input_dim=4, hidden=(8,), head_sizes=(11, 11, 11)))
        if damage == "random_bytes":
            ckpt.write_bytes(random.Random(0).randbytes(4096))
        elif damage == "truncated":
            store.save(ckpt)
            ckpt.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        else:  # a well-formed file whose weights are NaN
            store.params[0][:] = float("nan")
            store.save(ckpt)
        assert main(["evaluate", "--config", str(config), "--band", "low",
                     "--targets", str(ckpt)]) == EXIT_CONFIG
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "cluster_file", "profiles_file",
                                     "traces_file"])
    def test_non_utf8_input_is_config_error(self, tmp_path, capsys, key):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"# caf\xe9\n")
        config = bad if key == "config" else write_config(tmp_path, **{key: str(bad)})
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err

    @pytest.mark.parametrize("key, extra", [
        ("beta_list", {"beta_list": 0.5}),
        ("workload.bands", {"workload": {"duration": 30, "bands": "low"}}),
        ("train.hidden", {"train": {"hidden": 16}}),
        ("cluster", {"cluster": "t4g.large"}),
    ])
    def test_scalar_for_a_list_is_config_error(self, tmp_path, capsys, key, extra):
        config = write_config(tmp_path, **extra)
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert f"{key!r} must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("rfrt_cap", 0), ("rate_cap", 0),
                                            ("rate_cap", -1.0), ("cpu_cap_norm", 8.0),
                                            ("mem_cap_norm", 32768.0)])
    def test_bad_env_key_is_config_error(self, tmp_path, capsys, key, value):
        # calibrate builds no agent state, so without the check a zero cap
        # would only fail later, dividing by zero in train
        config = write_config(tmp_path, env={key: value})
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("calibrate", "sim.exec_noise_sigma", -1),
        ("train", "train.seed", -1),
        ("train --agent dqn", "dqn.seed", -1),
        ("train --agent dqn", "dqn.batch_size", 0),
        ("calibrate", "workload.constant_rate", -5),
        ("calibrate", "workload.constant_rate", 0),  # loads, then carries no traffic
    ], ids=["sim.exec_noise_sigma", "train.seed", "dqn.seed", "dqn.batch_size",
            "workload.constant_rate", "workload.constant_rate-no-traffic"])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, command, key,
                                                value):
        config = write_config(tmp_path, cluster=["t4g.large"])
        cfg = yaml.safe_load(config.read_text())
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = value
        config.write_text(yaml.safe_dump(cfg))
        assert main([*command.split(), "--config", str(config)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("entry, key", [({"functions": [0]}, "app_id"),
                                            ({"app_id": 0}, "functions")])
    def test_application_entry_without_a_key_is_config_error(self, tmp_path, capsys,
                                                             entry, key):
        profiles = tmp_path / "profiles.yaml"
        profiles.write_text(yaml.safe_dump([{
            "function_id": 0, "req_cpu": 0.25, "req_mem": 256.0,
            "standard_response_time": 1.0, "cold_start_seconds": 2.0,
            "initial_pod_cpu": 1.0, "initial_pod_mem": 1024.0}]))
        config = write_config(tmp_path, profiles_file=str(profiles), applications=[entry])
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert f"missing key {key!r}" in capsys.readouterr().err

    def test_duration_not_a_multiple_of_decision_interval(self, tmp_path, capsys):
        config = write_config(tmp_path, env={"decision_interval": 10},
                              workload={"duration": 35, "calibration_per_band": 1})
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert "decision_interval" in capsys.readouterr().err

    def test_missing_traces_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "traces.txt"
        config = write_config(tmp_path, traces_file=str(missing))
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_invalid_calibration_yaml_is_config_error(self, workspace, capsys):
        config, run_dir = workspace
        run_dir.mkdir(parents=True)
        (run_dir / "calibration.yaml").write_text("rfrt: {min: 1\n")
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "calibration.yaml" in capsys.readouterr().err

    def test_infinite_calibration_bound_is_config_error(self, workspace, capsys):
        config, run_dir = workspace
        run_dir.mkdir(parents=True)
        (run_dir / "calibration.yaml").write_text(
            "cost: {min: 0.0, max: .inf}\nrfr: {min: 0.0, max: 1.0}\n"
            "rfrt: {min: 1.0, max: 5.0}\n")
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "calibration.yaml" in capsys.readouterr().err


class TestConfigHash:
    def test_output_location_does_not_change_the_hash(self, tmp_path):
        hashes = set()
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name)
            exp = load_experiment(config)
            assert exp.output_dir == tmp_path / name / "run"
            hashes.add(exp.config_hash)
        assert len(hashes) == 1

    def test_changed_seed_changes_the_hash(self, tmp_path):
        config = write_config(tmp_path)
        base = load_experiment(config)
        reseeded = load_experiment(config, overrides={"train": {"seed": 4}})
        assert base.config_hash != reseeded.config_hash
