"""tools/bench_pairs.py: pairing, ratios, win counts and bound verdicts."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import bench_pairs  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "x.nodes", "unit": "count", "better": "lower"}],
}


def write_run(root, workload, seed, trace, end_to_end, per_layer=None, failures=()):
    run = root / f"{workload}-seed{seed}-trace{trace}"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps({
        "args": {"workload": workload, "seed": seed, "seconds": 40.0, "trace": trace},
        "end_to_end": end_to_end, "per_layer": per_layer or {},
        "failures": list(failures), "errors": []}))


@pytest.fixture
def run_sets(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    rates = [(100.0, 130.0), (110.0, 140.0), (90.0, 120.0), (105.0, 100.0)]
    for seed, (b, c) in enumerate(rates):
        write_run(base, "train", seed, 0, {"rate": b, "rss": 300.0})
        write_run(change, "train", seed, 0, {"rate": c, "rss": 340.0})
    write_run(base, "train", 99, 0, {"rate": 1.0, "rss": 1.0})  # no partner
    write_run(base, "train", 7, 1, {}, {"x.nodes": 496.0})
    write_run(change, "train", 7, 1, {}, {"x.nodes": 264.0}, failures=["bad"])
    return base, change


def test_pairs_give_ratios_wins_and_verdicts(run_sets):
    base, change = run_sets
    out = bench_pairs.compare(bench_pairs.load_reports(str(base)),
                              bench_pairs.load_reports(str(change)), BENCHMARK)
    untraced = out["train"]["untraced"]
    assert untraced["seeds"] == [0, 1, 2, 3]
    rate = untraced["end_to_end"]["rate"]
    assert rate["base"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
    assert rate["change"]["median"] == 125.0
    assert rate["ratio"] == pytest.approx(125.0 / 102.5)
    assert (rate["change_wins"], rate["pairs"]) == (3, 4)
    assert rate["verdict"] == "within bound"
    # 3 wins of 4 is below nine in ten, though the median gain beats the IQR
    assert rate["beats_base_spread"] is False
    rss = untraced["end_to_end"]["rss"]
    assert rss["ratio"] == pytest.approx(340.0 / 300.0)
    assert rss["change_wins"] == 0
    # 13% more memory against a 10% bound
    assert rss["verdict"] == "regression"
    traced = out["train"]["traced"]
    assert traced["per_layer"]["x.nodes"] == {"unit": "count", "base": 496.0,
                                              "change": 264.0,
                                              "ratio": pytest.approx(264 / 496)}
    assert traced["correct"] == {"base": True, "change": False}


def test_a_clear_win_beats_the_base_spread():
    spec = BENCHMARK["end_to_end"][0]
    base = [100.0 + i for i in range(10)]
    change = [130.0 + i for i in range(10)]
    s = bench_pairs.end_to_end_summary(base, change, spec)
    assert (s["change_wins"], s["verdict"], s["beats_base_spread"]) == (
        10, "within bound", True)
    lower = bench_pairs.end_to_end_summary([10.0] * 10, [7.0] * 10,
                                           BENCHMARK["end_to_end"][1])
    assert lower["change_wins"] == 10 and lower["ratio"] == 0.7


def test_main_writes_the_bench_file(run_sets, tmp_path, monkeypatch, capsys):
    base, change = run_sets
    bench_file = tmp_path / "BENCHMARK.json"
    bench_file.write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--tag", "t",
                             "--base-commit", "aaa", "--change-commit", "bbb"]) == 0
    written = json.loads(out.read_text())
    assert written["commits"] == {"base": "aaa", "change": "bbb"}
    assert written["machine"]["cpus"] >= 1
    assert "regression" in capsys.readouterr().out
    assert bench_pairs.main(["--base", str(base), "--change", str(tmp_path / "none"),
                             "--tag", "u"]) == 1
