"""``experiments/bench_pairs.py`` on canned benchmark results: its summary,
its gain rule and its exit codes, without starting the benchmark."""

from pathlib import Path

import pytest

from test_protocol import load_experiment

bench_pairs = load_experiment("bench_pairs")


def results(values: dict) -> list:
    """One correct run result per pair from ``{metric: [value per pair]}``."""
    count = len(next(iter(values.values())))
    return [{"correct": True,
             "metrics": {name: {"value": v[i], "unit": "s"} for name, v in values.items()}}
            for i in range(count)]


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]


def test_a_gain_holds_on_nine_wins_of_ten_and_a_gap_beyond_the_parents_quartiles():
    change = [v - 4.0 for v in PARENT]
    change[3] = 20.0  # one pair lost
    row = bench_pairs.summarize(results({"eval_s": PARENT}), results({"eval_s": change}),
                                "eval_s", "lower")
    assert (row["wins"], row["pairs"], row["holds"]) == (9, 10, True)
    assert row["parent"][1] == pytest.approx(12.25)
    assert row["gap"] == pytest.approx((row["change"][1] - 12.25) / 12.25)


@pytest.mark.parametrize("change,wins", [
    # eight wins of ten are too few, however large the gap
    ([v - 4.0 for v in PARENT[:8]] + [20.0, 20.0], 8),
    # ten wins, but a gap inside the parent's quartile distance
    ([v - 0.5 for v in PARENT], 10),
    # a metric that got worse
    ([v + 4.0 for v in PARENT], 0),
], ids=["eight-wins", "small-gap", "worse"])
def test_a_gain_does_not_hold(change, wins):
    row = bench_pairs.summarize(results({"eval_s": PARENT}), results({"eval_s": change}),
                                "eval_s", "lower")
    assert (row["wins"], row["holds"]) == (wins, False)


def test_higher_is_better_counts_wins_the_other_way():
    change = [v + 4.0 for v in PARENT]
    row = bench_pairs.summarize(results({"items": PARENT}), results({"items": change}),
                                "items", "higher")
    assert (row["wins"], row["holds"]) == (10, True)
    # a tie counts for neither side
    assert bench_pairs.summarize(results({"items": PARENT}), results({"items": PARENT}),
                                 "items", "higher")["wins"] == 0


def test_the_report_prints_every_metric_and_names_runs_that_are_not_correct():
    metrics = [{"name": "eval_s", "better": "lower"}, {"name": "items", "better": "higher"}]
    good = {"parent": results({"eval_s": PARENT, "items": PARENT}),
            "change": results({"eval_s": [v - 4.0 for v in PARENT], "items": PARENT})}
    broken = {"parent": results({"eval_s": PARENT, "items": PARENT}),
              "change": results({"eval_s": PARENT, "items": PARENT})}
    broken["change"][3] = {"correct": False}
    lines, bad = bench_pairs.report({"fast": good, "broken": broken}, metrics)
    assert bad == 1
    assert lines[0] == "fast: 10 pairs"
    assert lines[2].split()[:2] == ["eval_s", "lower"] and lines[2].endswith("holds")
    assert lines[3].split()[:2] == ["items", "higher"] and lines[3].endswith("no")
    assert lines[4:] == ["broken: 10 pairs", "  not correct: change seed 3"]


def test_main_runs_alternating_pairs_and_fails_on_a_run_that_is_not_correct(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "w"}], "end_to_end": [{"name": "eval_s", "better": "lower"}]}')
    calls = []

    def canned(checkout, workload, seed):
        calls.append((Path(checkout).name, workload, seed))
        value = 1.0 if Path(checkout) == change else 2.0 + 0.1 * seed
        return results({"eval_s": [value]})[0]
    monkeypatch.setattr(bench_pairs, "run_benchmark", canned)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pairs", "3"]) == 0
    assert calls == [("parent", "w", 0), ("change", "w", 0), ("change", "w", 1),
                     ("parent", "w", 1), ("parent", "w", 2), ("change", "w", 2)]
    assert capsys.readouterr().out.splitlines()[2].split()[-2:] == ["-52.38%", "holds"]

    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda *args: {"correct": False})
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pairs", "2"]) == 1


def test_first_seed_starts_the_pairs_there_and_names_failed_runs_by_seed(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "w"}], "end_to_end": [{"name": "eval_s", "better": "lower"}]}')
    calls = []

    def canned(checkout, workload, seed):
        calls.append((Path(checkout).name, seed))
        if (Path(checkout), seed) == (change, 12):
            return {"correct": False}
        return results({"eval_s": [1.0]})[0]
    monkeypatch.setattr(bench_pairs, "run_benchmark", canned)
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "3"]
    assert bench_pairs.main([*argv, "--first-seed", "11"]) == 1
    assert calls == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12),
                     ("parent", 13), ("change", 13)]
    assert capsys.readouterr().out.splitlines() == ["w: 3 pairs",
                                                    "  not correct: change seed 12"]
    with pytest.raises(SystemExit):
        bench_pairs.main([*argv, "--first-seed", "-1"])
    assert "--first-seed must not be negative" in capsys.readouterr().err


def test_main_refuses_checkouts_whose_paths_differ_in_length(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_benchmark", never)
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "bb"), "--pairs", "10"]
    assert bench_pairs.main(argv) == 2
    assert "differ in length" in capsys.readouterr().err
