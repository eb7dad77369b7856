import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def fake_run(side, pair, wall, trace=0):
    return {
        "workload": "w", "seed": 10 + pair, "seconds": 1.0, "trace": trace,
        "side": side, "pair": pair, "order": ["parent", "change"],
        "last_line": {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
        "elapsed_s": 30.0 + wall,
    }


def test_summary_pairs_the_sides_and_keeps_traced_runs_apart():
    runs = [fake_run("parent", i, 1.0 + i) for i in range(4)]
    runs += [fake_run("change", i, 0.5 + i) for i in range(3)] + [fake_run("change", 3, 9.0)]
    runs += [fake_run("parent", 0, 2.0, trace=1), fake_run("change", 0, 1.0, trace=1)]
    summary = bench_pairs._summary(runs)
    wall = summary["w"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}
    assert wall["pairs"] == 4 and wall["change_lower_in_pairs"] == 3
    assert summary["w"]["elapsed_s"]["change_lower_in_pairs"] == 3
    traced = summary["w (traced)"]["wall_s"]
    assert traced["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert traced["pairs"] == 1 and traced["change_lower_in_pairs"] == 1
