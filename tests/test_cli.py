import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import yaml

import pytest

from faaslab import cli
from faaslab.agents import evaluate
from faaslab.baselines import run_baseline
from faaslab.cli import EXIT_CONFIG, EXIT_OK, main, read_csv
from faaslab.config import load_experiment
from faaslab.env import ServerlessEnv
from faaslab.metrics import ChannelBounds, EpisodeLedger, RewardBounds
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
        "dqn": {"episodes": 2, "batch_size": 4, "buffer_capacity": 32},
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

    def test_one_engine_alive_at_a_time(self, workspace, monkeypatch):
        config, _ = workspace
        earlier = []

        def wrapped(*args, **kwargs):
            assert all(ref() is None for ref in earlier)
            res = run_baseline(*args, **kwargs)
            earlier.append(weakref.ref(res.engine))
            return res

        monkeypatch.setattr(cli, "run_baseline", wrapped)
        assert main(["calibrate", "--config", str(config)]) == EXIT_OK
        assert len(earlier) == 6  # calibration_per_band 2 over three bands


class TestTrain:
    def test_requires_calibration(self, workspace, capsys):
        config, _ = workspace
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "run `faaslab calibrate` first" in capsys.readouterr().err

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

    @pytest.mark.parametrize("agent, curve", [("a3c", "curves_a3c_beta1_w2.csv"),
                                              ("dqn", "curves_dqn_beta1.csv")], ids=["a3c", "dqn"])
    def test_resume_appends_to_the_curve(self, workspace, agent, curve):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        argv = ["train", "--config", str(config), "--agent", agent, "--workers", "2"]
        assert main(argv) == EXIT_OK
        first = (run_dir / curve).read_text()
        _, _, first_rows = read_csv(run_dir / curve)
        assert main([*argv, "--resume"]) == EXIT_OK
        text = (run_dir / curve).read_text()
        _, _, rows = read_csv(run_dir / curve)
        assert text.startswith(first)  # metadata lines and rows byte for byte
        assert len(rows) == 2 * len(first_rows)
        assert [int(r[0]) for r in rows[len(first_rows):]] == [
            int(r[0]) + int(first_rows[-1][0]) + 1 for r in first_rows]

    @pytest.mark.parametrize("key, value", [("config_hash", "0123456789ab"), ("seed", "4")])
    def test_resume_onto_another_experiments_curve_names_both_values(self, workspace, capsys,
                                                                   key, value):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config)]) == EXIT_OK
        curve = run_dir / "curves_a3c_beta1_w1.csv"
        meta, _, _ = read_csv(curve)
        before = curve.read_text().replace(f"# {key}={meta[key]}\n", f"# {key}={value}\n")
        curve.write_text(before)
        assert main(["train", "--config", str(config), "--resume"]) == EXIT_CONFIG
        assert (f"resumed curve {curve} does not match: "
                f"{key} {value} in the file, {meta[key]} in this run\n") in capsys.readouterr().err
        assert curve.read_text() == before

    @pytest.mark.parametrize("agent, store", [("a3c", "actor"), ("dqn", "DQN")])
    def test_resume_under_another_seed_names_the_seed(self, workspace, capsys, agent, store):
        config, _ = workspace
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config), "--agent", agent]) == EXIT_OK
        assert main(["train", "--config", str(config), "--agent", agent, "--resume",
                     "--seed", "9"]) == EXIT_CONFIG
        assert (f"resumed {store} checkpoint does not match: "
                "seed 3 in the checkpoint, 9 in this run\n") in capsys.readouterr().err

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

    def test_dqn_takes_seed_and_trunk_from_train_section(self, tmp_path):
        config = write_config(tmp_path, train={"seed": 5, "gamma": 0.0, "hidden": [6]})
        run_dir = tmp_path / "run"
        main(["calibrate", "--config", str(config)])
        assert main(["train", "--config", str(config), "--agent", "dqn"]) == EXIT_OK
        with np.load(run_dir / "dqn_beta1.npz") as data:
            meta = json.loads(str(data["meta"]))
        assert meta["hidden"] == [6] and meta["seed"] == 5
        assert "# seed=5" in (run_dir / "curves_dqn_beta1.csv").read_text().splitlines()

    def test_async_sync_mode_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, train={"sync_mode": "async"})
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "sync_mode" in capsys.readouterr().err


class TestTrainOutputPins:
    """What ``faaslab train`` writes for desk A3C (two workers) and desk DQN: each
    curve's data rows, and a sha256 over each checkpoint's meta and arrays in key
    order. Any change to what either learner computes or how a run saves it shows."""

    ROWS = {
        "curves_a3c_beta1_w2.csv": [
            "0,0,1,-0.243550052,2.14563107,0,0.00265838889",
            "0,1,1,-0.38931539,2.71428571,0.00323624595,0.00152893333",
            "1,0,1,-0.28620571,2.34627832,0,0.00127967778",
            "1,1,1,-0.957494976,3.83823529,0.1197411,0.00117998283",
        ],
        "curves_dqn_beta1.csv": [
            "0,0,1,-0.23254214,2.09385113,0,0.00169451667",
            "1,0,1,-0.716928701,2.9787234,0.0873786408,0.00105587778",
        ],
    }
    CHECKPOINTS = {
        "actor_a3c_beta1_w2.npz": "04b001e9449c9650fc52f3b0d642829dd7b09f6299a93056b089392c7852825e",
        "critic_a3c_beta1_w2.npz": "48100f140b27d813be27b600c6dc5b378eaa86244a66558b7090442acc91e079",
        "dqn_beta1.npz": "07dacdc27729299d09173dba5a00b2ae8ca26ac3596268477ac2292d764c0fb7",
    }

    def test_files_unchanged(self, workspace):
        config, run_dir = workspace
        assert main(["calibrate", "--config", str(config)]) == EXIT_OK
        assert main(["train", "--config", str(config), "--workers", "2"]) == EXIT_OK
        assert main(["train", "--config", str(config), "--agent", "dqn"]) == EXIT_OK
        assert {name: [",".join(row) for row in read_csv(run_dir / name)[2]]
                for name in self.ROWS} == self.ROWS
        digests = {}
        for name in self.CHECKPOINTS:
            digest = hashlib.sha256()
            with np.load(run_dir / name) as data:
                for key in sorted(data.files):
                    digest.update(data[key].tobytes())
            digests[name] = digest.hexdigest()
        assert digests == self.CHECKPOINTS


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

    def test_eval_parallel_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, eval_parallel=1)
        assert main(["evaluate", "--config", str(config),
                     "--targets", "kube_cpu"]) == EXIT_CONFIG
        assert "unknown config key eval_parallel" in capsys.readouterr().err

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

    def test_target_named_twice_is_evaluated_once(self, workspace, monkeypatch):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        monkeypatch.chdir(run_dir.parent)
        ckpt = run_dir / "actor_a3c_beta1_w1.npz"
        bodies = []
        for targets in (["kube_cpu", str(ckpt)],
                        ["kube_cpu", str(ckpt), "kube_cpu", "run/actor_a3c_beta1_w1.npz"]):
            assert main(["evaluate", "--config", str(config), "--band", "low",
                         "--targets", *targets]) == EXIT_OK
            bodies.append([no_timestamp(run_dir / name)
                           for name in ("eval_workloads.csv", "eval_summary.csv")])
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("kind", ["critic", "wrong_state_dim"])
    def test_unusable_checkpoint_runs_no_episode(self, workspace, monkeypatch, capsys,
                                                 kind):
        config, run_dir = workspace
        exp = load_experiment(config)
        state_dim = ServerlessEnv(exp.vms, exp.profiles).state_dim
        spec = (NetworkSpec(input_dim=state_dim, hidden=(8,), head_sizes=(1,))
                if kind == "critic" else
                NetworkSpec(input_dim=state_dim + 1, hidden=(8,), head_sizes=(11, 11, 11)))
        ckpt = run_dir.parent / f"{kind}.npz"
        ParameterStore(spec).save(ckpt)

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the checkpoint was rejected")

        monkeypatch.setattr(evaluate, "run_baseline", no_episode)
        assert main(["evaluate", "--config", str(config), "--band", "low",
                     "--targets", "kube_cpu", "knative", str(ckpt)]) == EXIT_CONFIG
        assert ("head layout (1,)" if kind == "critic" else "state dim") \
            in capsys.readouterr().err

    def test_stdout_table_keeps_its_columns_apart(self, workspace, capsys):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        ckpt = run_dir.parent / "checkpoints" / "actor_a3c_beta1_w1.npz"
        ckpt.parent.mkdir()
        (run_dir / "actor_a3c_beta1_w1.npz").rename(ckpt)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--band", "low",
                     "--targets", "kube_cpu", str(ckpt)]) == EXIT_OK
        table = capsys.readouterr().out.splitlines()[:-1]  # the last line names the files
        label = "../checkpoints/actor_a3c_beta1_w1.npz"
        assert len(label) > 24
        assert table[0].split() == ["target", "band", "workloads", "RART", "RFR", "cost"]
        assert [line.split()[:3] for line in table[1:]] == [
            [label, "low", "2"], ["kube_cpu", "low", "2"]]
        assert all(len(line.split()) == 6 for line in table)


class TestReport:
    def test_missing_artifacts_listed(self, workspace):
        config, run_dir = workspace
        assert main(["report", "--config", str(config)]) == EXIT_CONFIG

    def test_run_dir_flag_is_gone(self, workspace):
        # --out names the run directory, as for every other command
        config, run_dir = workspace
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", str(config), "--run-dir", str(run_dir)])
        assert exc.value.code == 2  # argparse rejects the unknown flag

    @pytest.mark.parametrize("argv", [
        ["report", "--seed", "9"],
        ["report", "--preset", "paper"],
        ["calibrate", "--seed", "5"],
        ["simulate", "--seed", "5"],
    ], ids=["report-seed", "report-preset", "calibrate-seed", "simulate-seed"])
    def test_flag_the_command_does_not_read_is_gone(self, workspace, argv):
        # calibrate, simulate and report write no byte that --seed sets, and
        # report none that --preset sets, so none of them takes the flag
        config, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(config)])
        assert exc.value.code == 2  # argparse rejects the unknown flag

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

    def test_stamps_the_provenance_of_its_inputs(self, workspace):
        # report under another config (here the seed differs) labels what it
        # merges with the inputs' hash and seed, not with its own
        config, run_dir = workspace
        seeded = ["--config", str(config), "--seed", "5"]
        main(["calibrate", "--config", str(config)])  # writes no seed
        main(["train", *seeded])
        main(["evaluate", *seeded, "--band", "mid", "--targets", "kube_cpu"])
        trained, _, _ = read_csv(run_dir / "curves_a3c_beta1_w1.csv")
        assert trained["config_hash"] != load_experiment(config).config_hash
        assert main(["report", "--config", str(config)]) == EXIT_OK
        for name in ("report_curves.csv", "report_evaluation.csv"):
            meta, _, _ = read_csv(run_dir / name)
            assert (meta["config_hash"], meta["seed"]) == (trained["config_hash"], "5")

    def test_input_without_provenance_is_config_error(self, workspace, capsys):
        config, run_dir = workspace
        run_dir.mkdir(parents=True)
        (run_dir / "curves_a3c_beta1_w1.csv").write_text(
            "# seed=3\nepisode,worker,reward,rfrt,rfr,cost\n")
        (run_dir / "eval_workloads.csv").write_text(
            "# config_hash=0123456789ab\n# seed=3\ntarget,band,workload,rart,rfr,cost\n")
        assert main(["report", "--config", str(config)]) == EXIT_CONFIG
        assert "curves_a3c_beta1_w1.csv: no '# config_hash=' line" in capsys.readouterr().err

    def test_curves_of_two_experiments_are_refused(self, workspace, capsys):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config)])
        main(["train", "--config", str(config), "--seed", "5", "--beta", "0"])
        main(["evaluate", "--config", str(config), "--band", "mid", "--targets", "kube_cpu"])
        assert main(["report", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "curves_a3c_beta0_w1.csv" in err and "curves_a3c_beta1_w1.csv" in err


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

    # dqn's checkpoint takes the compound-action branch of _policy_from_store
    @pytest.mark.parametrize("agent, name", [("a3c", "actor_a3c_beta1_w1"),
                                             ("dqn", "dqn_beta1")], ids=["a3c", "dqn"])
    def test_checkpoint_episode_is_its_evaluate_row(self, workspace, monkeypatch, agent, name):
        config, run_dir = workspace
        main(["calibrate", "--config", str(config)])
        main(["train", "--config", str(config), "--agent", agent])
        ckpt = run_dir / f"{name}.npz"
        assert main(["evaluate", "--config", str(config), "--band", "high",
                     "--targets", str(ckpt)]) == EXIT_OK
        _, header, rows = read_csv(run_dir / "eval_workloads.csv")
        row = dict(zip(header, rows[0]))
        assert (row["band"], row["workload"]) == ("high", "0")
        summaries = []
        summary = EpisodeLedger.summary

        def recording(ledger):
            summaries.append(summary(ledger))
            return summaries[-1]

        monkeypatch.setattr(EpisodeLedger, "summary", recording)
        assert main(["simulate", "--config", str(config), "--band", "high",
                     "--policy", str(ckpt)]) == EXIT_OK
        (s,) = summaries
        assert [f"{v:.9g}" for v in (s.rart, s.rfr, s.cost)] == [
            row["rart"], row["rfr"], row["cost"]]
        assert (run_dir / f"events_{name}_high_0.log").read_text()

    def test_unknown_policy_is_config_error_naming_it(self, workspace, capsys):
        config, _ = workspace
        assert main(["simulate", "--config", str(config), "--policy", "sorcery"]) == EXIT_CONFIG
        assert "'sorcery'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("damage", ["random_bytes", "truncated", "nan_array",
                                        "meta_only", "negative_version"])
    def test_corrupt_checkpoint_is_config_error(self, workspace, capsys, damage):
        config, run_dir = workspace
        ckpt = run_dir.parent / f"{damage}.npz"
        store = ParameterStore(NetworkSpec(input_dim=4, hidden=(8,), head_sizes=(11, 11, 11)))
        if damage == "random_bytes":
            ckpt.write_bytes(random.Random(0).randbytes(4096))
        elif damage == "truncated":
            store.save(ckpt)
            ckpt.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        elif damage == "nan_array":  # well-formed, but NaN weights, which save refuses
            store.save(ckpt)
            with np.load(ckpt) as data:
                arrays = dict(data)
            arrays["p0"][:] = float("nan")
            with ckpt.open("wb") as fh:
                np.savez(fh, **arrays)
        elif damage == "negative_version":  # Adam's next step would divide by 1 - 0.9 ** 0
            store.version = -1
            store.save(ckpt)
        else:  # a meta claiming ~100 MB of layers, and no arrays
            meta = {"format": 1, "input_dim": 4, "hidden": [2000, 2000],
                    "head_sizes": [11, 11, 11], "seed": 0, "version": 0}
            with ckpt.open("wb") as fh:
                np.savez(fh, meta=json.dumps(meta))
        tracemalloc.start()
        try:
            code = main(["evaluate", "--config", str(config), "--band", "low",
                         "--targets", str(ckpt)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert str(ckpt) in capsys.readouterr().err
        assert peak < 10e6  # the file's claims allocate nothing before a check

    # Each input and the command that reads it: a config key names a file of
    # its own, a file name (with a dot) lives in the run directory. Report's
    # CSVs start as the valid text below, so the damaged one is what fails;
    # report stamps its outputs with their config hash and seed lines.
    INPUTS = {"config": "calibrate", "cluster_file": "calibrate",
              "profiles_file": "calibrate", "traces_file": "calibrate",
              "calibration.yaml": "train", "curves_a3c_beta1_w1.csv": "report",
              "eval_workloads.csv": "report"}
    PROVENANCE = "# config_hash=0123456789ab\n# seed=3\n"
    REPORT_CSVS = {
        "curves_a3c_beta1_w1.csv": PROVENANCE + "episode,worker,beta,reward,rfrt,rfr,cost\n"
                                                "0,0,1,-0.5,1.5,0,0.001\n",
        "eval_workloads.csv": PROVENANCE + "target,band,workload,rart,rfr,cost\n"
                                           "kube_cpu,low,0,1.5,0,0.001\n"}

    @pytest.mark.parametrize("key, damage", [
        pytest.param(key, damage, id=key if damage == "not_utf8" else f"{key}-{damage}")
        for key, damage in [*((key, "not_utf8") for key in INPUTS),
                            *((key, "directory") for key in INPUTS),
                            *((key, damage) for key in REPORT_CSVS
                              for damage in ("missing_column", "short_row")),
                            ("calibration.yaml", "missing")]])
    def test_non_utf8_input_is_config_error(self, tmp_path, capsys, key, damage):
        # Every input file is read by errors.read_text, so each kind of damage
        # fails alike: exit 2 with the file's path on stderr.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name, text in self.REPORT_CSVS.items():
            (run_dir / name).write_text(text)
        bad = run_dir / key if "." in key else tmp_path / "input.txt"
        bad.unlink(missing_ok=True)
        if damage == "not_utf8":
            bad.write_bytes(b"# caf\xe9\n")
        elif damage == "directory":
            bad.mkdir()
        elif damage == "missing_column":
            bad.write_text(self.REPORT_CSVS[key].replace("rfr,", "", 1))
        elif damage == "short_row":
            bad.write_text(self.REPORT_CSVS[key].rsplit(",", 1)[0] + "\n")
        config = bad if key == "config" else write_config(
            tmp_path, **({} if "." in key else {key: str(bad)}))
        assert main([self.INPUTS[key], "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(bad) in err and "unexpected error" not in err
        assert {"not_utf8": "not UTF-8", "directory": "not a regular file",
                "missing": "run `faaslab calibrate` first"}.get(damage, "") in err

    @pytest.mark.parametrize("key, extra", [
        ("beta_list", {"beta_list": 0.5}),
        ("train.hidden", {"train": {"hidden": 16}}),
        ("cluster", {"cluster": "t4g.large"}),
    ], ids=["beta_list-extra0", "train.hidden-extra2", "cluster-extra3"])
    def test_scalar_for_a_list_is_config_error(self, tmp_path, capsys, key, extra):
        config = write_config(tmp_path, **extra)
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert f"{key!r} must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        # The state normalizers are module constants of faaslab.env: a
        # checkpoint records no normalizer, so a config could otherwise feed a
        # trained actor rescaled features.
        ("env.rfrt_cap", 0), ("env.rate_cap", 0), ("env.rate_cap", -1.0),
        ("env.cpu_cap_norm", 8.0), ("env.mem_cap_norm", 32768.0),
        # A window is observed whole.
        ("env.observe_delay", 10),
        # The replica cap is the constant MAX_REPLICAS of faaslab.cluster, for
        # the same reason as the normalizers: the state divides by it.
        ("sim.max_replicas", 80),
        # Workloads come only from band-fitted traces.
        ("workload.constant_rate", 5),
        # A routed request runs exactly its function's standard response time,
        # so there is no execution-time noise and no seed for it.
        ("sim.exec_noise_sigma", 0.0), ("sim.seed", 0),
        # A3C applies its Adam steps unclipped.
        ("train.grad_clip", None),
        # DQN trains on the train section's discount, trunk and seed.
        ("dqn.gamma", 0.6), ("dqn.hidden", [8, 8]), ("dqn.seed", 3),
        # DQN explores on a fixed schedule.
        ("dqn.eps_start", 0.5), ("dqn.eps_end", 0.1),
    ])
    def test_retired_key_is_unknown(self, tmp_path, capsys, key, value):
        section, name = key.split(".")
        config = write_config(tmp_path, **{section: {name: value}})
        assert main(["calibrate", "--config", str(config)]) == EXIT_CONFIG
        assert f"unknown config key {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "train.seed", -1),
        ("train --agent dqn", "dqn.lr", 1.0e+308),
        ("train --agent dqn", "dqn.batch_size", 0),
        ("train", "train.entropy_beta", 1.0e+308),
        ("simulate", "sim.retry_interval", 1.0e+308),  # the second retry would fall due at inf
    ], ids=["train.seed", "dqn.lr", "dqn.batch_size", "train.entropy_beta",
            "sim.retry_interval"])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, command, key,
                                                value):
        config = write_config(tmp_path, cluster=["t4g.large"])
        cfg = yaml.safe_load(config.read_text())
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = value
        config.write_text(yaml.safe_dump(cfg))
        assert main([*command.split(), "--config", str(config)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_knative_product_that_underflows_is_config_error(self, tmp_path, capsys):
        # Each factor passes its own check, but their product, the divisor of
        # knative_decide, underflows to 0.0.
        config = write_config(tmp_path, baselines={"knative": {
            "target_concurrency": 5.0e-324, "target_utilization": 0.4}})
        assert main(["simulate", "--policy", "knative", "--band", "high",
                     "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "baselines.knative.target_concurrency" in err
        assert "baselines.knative.target_utilization" in err

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

    @pytest.mark.parametrize("command", ["calibrate", "train"])
    def test_decision_interval_above_duration(self, tmp_path, capsys, command):
        # 20 / 1e15 rounds to 0 steps: no episode would take a decision
        calibration = tmp_path / "calibration.yaml"
        RewardBounds(ChannelBounds(0.0, 2.0), ChannelBounds(0.0, 1.0),
                     ChannelBounds(0.0, 1e-3)).save(calibration)
        config = write_config(tmp_path, env={"decision_interval": 1.0e+15},
                              calibration_file=str(calibration),
                              workload={"duration": 20, "calibration_per_band": 1,
                                        "train_pool_size": 1})
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert "env.decision_interval" in capsys.readouterr().err

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

    def test_importing_the_config_module_loads_no_hashlib(self):
        # hashlib loads OpenSSL, some 3.6 MB resident; only config_hash needs it
        script = ("import sys, numpy, yaml\n"
                  "if 'hashlib' in sys.modules: print('preloaded'); raise SystemExit\n"
                  "import faaslab.config\n"
                  "print('hashlib' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        if out.strip() == "preloaded":
            pytest.skip("an earlier import brought in hashlib")
        assert out.strip() == "False"

    def test_a_preset_run_loads_no_yaml(self):
        # PyYAML is read only for YAML files; a preset needs none. The imports
        # are the CLI's and the benchmark's (perfbench/workloads.py).
        script = ("import sys\n"
                  "if 'yaml' in sys.modules: print('preloaded'); raise SystemExit\n"
                  "import faaslab.cli\n"
                  "import faaslab.agents.a3c, faaslab.agents.evaluate, faaslab.baselines\n"
                  "from faaslab.config import load_experiment\n"
                  "from faaslab.env import ServerlessEnv\n"
                  "from faaslab.metrics import ChannelBounds, EpisodeLedger, RewardBounds\n"
                  "from faaslab.workload import EVAL_BANDS, TRAIN_BAND, make_workload\n"
                  "load_experiment(overrides={'preset': 'paper'})\n"
                  "print('yaml' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        if out.strip() == "preloaded":
            pytest.skip("the interpreter loads yaml at start-up")
        assert out.strip() == "False"
