"""``scripts/bench_record.py`` sides each result by its commit, counts the
pairs the change won, keeps each side's medians and checks records."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
PARENT, CHANGE = "a" * 40, "b" * 40
BETTER = {"episodes_per_s": "higher", "peak_rss_mb": "lower"}


def load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(sha, seed, rate, rss, workload="train-paper"):
    return {"provenance": {"workload": workload, "seed": seed, "git_sha": sha,
                           "src_sha256": sha[:8]},
            "correct": True, "attempted": 6, "failed": 0, "failures": [],
            "metrics": {"episodes_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "ref_loop_ms_start": [7.0], "ref_loop_ms_end": [7.1]}


def test_sides_kept_fields_and_pairs_won():
    results = [result(PARENT, 1, 8.0, 90.0), result(CHANGE, 1, 8.5, 90.0),
               result(CHANGE, 2, 7.9, 89.0), result(PARENT, 2, 8.1, 91.0),
               result(CHANGE, 3, 9.0, 80.0)]  # seed 3 has no parent run
    record = load().build(results, 7, PARENT, CHANGE, "none", BETTER)
    assert [run["side"] for run in record["runs"]] == \
           ["parent", "change", "change", "parent", "change"]
    assert "failures" not in record["runs"][0]
    assert record["runs"][1]["provenance"] == results[1]["provenance"]
    # the tie on peak_rss_mb at seed 1 counts for neither side
    assert record["pairs_won"] == {"train-paper": {
        "episodes_per_s": {"won": 1, "pairs": 2}, "peak_rss_mb": {"won": 1, "pairs": 2}}}
    assert (record["pr"], record["parent"], record["change"], record["claim"]) == \
           (7, PARENT, CHANGE, "none")


def test_a_result_of_another_commit_or_a_repeated_run_is_refused():
    module = load()
    with pytest.raises(ValueError, match="neither commit"):
        module.build([result("c" * 40, 1, 8.0, 90.0)], 7, PARENT, CHANGE, "none", BETTER)
    with pytest.raises(ValueError, match="two parent runs"):
        module.build([result(PARENT, 1, 8.0, 90.0)] * 2, 7, PARENT, CHANGE, "none", BETTER)


def test_medians_of_each_side():
    results = [result(PARENT, 1, 8.0, 90.0), result(CHANGE, 1, 8.5, 90.0),
               result(PARENT, 2, 7.0, 92.0), result(CHANGE, 2, 7.9, 89.0),
               result(PARENT, 3, 9.0, 91.0)]  # seed 3 has no change run
    record = load().build(results, 7, PARENT, CHANGE, "none", BETTER)
    assert record["medians"] == {"train-paper": {
        "episodes_per_s": {"parent": 8.0, "change": 8.2},
        "peak_rss_mb": {"parent": 91.0, "change": 89.5}}}


def test_check_refuses_a_run_without_side_or_provenance(tmp_path, capsys):
    module = load()
    record = module.build([result(PARENT, 1, 8.0, 90.0), result(CHANGE, 1, 8.5, 90.0)],
                          7, PARENT, CHANGE, "none", BETTER)
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps(record))
    assert module.main(["--check", str(good)]) == 0
    assert capsys.readouterr().out == f"{good}: 2 runs\n"
    for i, damage in enumerate((lambda run: run.pop("side"),
                                lambda run: run.update(side="base"),
                                lambda run: run["provenance"].pop("git_sha"),
                                lambda run: run["provenance"].update(src_sha256=""))):
        broken = json.loads(good.read_text())
        damage(broken["runs"][1])
        path = tmp_path / f"BENCH_broken{i}.json"
        path.write_text(json.dumps(broken))
        assert module.main(["--check", str(good), str(path)]) == 1
        assert capsys.readouterr().err == \
               f"bench_record: {path}: run 1 lacks a side, a git_sha or a src_sha256\n"


def test_building_needs_its_flags(capsys):
    with pytest.raises(SystemExit) as info:
        load().main(["--pr", "7", "result.json"])
    assert info.value.code == 2
    assert "--parent, --change, --out" in capsys.readouterr().err
