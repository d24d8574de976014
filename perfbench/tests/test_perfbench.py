"""Self-tests of the benchmark: tracer coverage, exact counts, identical
outputs with and without tracing, the verifier, and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q

Runs each workload's batch three times in fresh processes (about a minute).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, LAYERS  # noqa: E402
from workloads import (IBP_ARGS, NC_MUS, NMAX, NMIN, WORKLOADS,  # noqa: E402
                       check_index_csv, check_suite_json)


def worker(workload: str, trace: bool) -> dict:
    args = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", "7"] + (["--trace"] if trace else [])
    proc = subprocess.run(args, cwd=ROOT, env=run.child_env(), capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    """Two traced runs and one untraced run of one batch of a workload."""
    name = request.param
    return name, worker(name, True), worker(name, True), worker(name, False)


def test_batches_verify(runs):
    name, *results = runs
    for result in results:
        assert [op["problems"] for op in result["ops"]] == [[]] * len(result["ops"])


def test_every_marked_layer_is_called(runs):
    name, traced, _, _ = runs
    calls = traced["trace_rounds"][0]["calls"]
    for row in LAYERS:
        if name not in row["on"]:
            continue
        for metric in row["metrics"]:
            if metric.kind in ("calls", "self_s"):
                for span in metric.sources:
                    assert calls[span] > 0, (name, row["layer"], span)
    if name == "suites":
        assert {s: n for s, n in calls.items() if s.startswith("nullity.") and n} == {}


def _distinct_jobs(nmin: int, nmax: int) -> int:
    jobs = set()
    for n in range(nmin, nmax + 1):
        for m in range(-abs(n) - 4, abs(n) + 5):
            jobs.add(("ker", m, m > n))
            jobs.add(("coker", m, m <= n + 1))
    return len(jobs)


def test_dense_calls_equal_distinct_jobs(runs):
    name, traced, _, _ = runs
    if name != "index-nc":
        pytest.skip("dense null counts run on index-nc only")
    layers = traced["trace_rounds"][0]["layers"]
    assert layers["nullity.count_null_dense.calls"] == len(NC_MUS) * _distinct_jobs(NMIN, NMAX)
    assert layers["aps.index_numeric.calls"] == len(NC_MUS) * (NMAX - NMIN + 1)


def test_counts_repeat_exactly(runs):
    _, first, second, _ = runs
    a, b = first["trace_rounds"][0], second["trace_rounds"][0]
    assert a["calls"] == b["calls"]
    counts = [m.name for m in LAYER_METRICS if m.kind != "self_s"]
    assert {n: a["layers"][n] for n in counts} == {n: b["layers"][n] for n in counts}


def test_tracing_leaves_outputs_identical(runs):
    _, traced, _, plain = runs
    assert [op["digest"] for op in traced["ops"]] == [op["digest"] for op in plain["ops"]]


def test_rounds_carry_reference_times(runs):
    _, _, _, plain = runs
    assert len(plain["round_reference_seconds"]) == len(plain["round_seconds"])
    assert all(ref > 0 for ref in plain["round_reference_seconds"])


def test_reference_kernels_run_no_qdisk_code():
    """wall_rel divides by the reference time, so a reference that ran qdisk
    code would hide a change to it."""
    code = ("import sys, workloads\n"
            "for w in workloads.WORKLOADS.values(): w.reference()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qdisk'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=run.child_env(),
                          capture_output=True, text=True, timeout=170, check=True)
    assert proc.stdout.strip() == "[]"


def _cli_output(argv: list[str]) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from qdisk import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_verifier_flags_corrupted_index_rows():
    argv = ("index-sweep", "--variant", "classical", "--grid", "256",
            "--nmin", "-1", "--nmax", "1")
    text = _cli_output(list(argv))
    assert check_index_csv(argv, text) == []
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + 1)  # dim_ker
    assert check_index_csv(argv, "\n".join([lines[0], ",".join(fields), *lines[2:]]))
    assert check_index_csv(argv, "\n".join(lines[:-1]))  # a cutoff missing


def test_verifier_flags_corrupted_suite_report():
    argv = ("parametrix-check", "--trials", "2", "--kmax", "64")
    text = _cli_output(list(argv))
    assert check_suite_json(argv, text) == []
    report = json.loads(text)
    check = report["checks"][0]
    check["observed"]["worst_residual"] = 2 * check["params"]["tol"]
    assert check_suite_json(argv, json.dumps(report))
    report = json.loads(text)
    report["pass"] = False
    assert check_suite_json(argv, json.dumps(report))


def test_verifier_flags_a_report_of_other_sizes():
    """A report that passes but did less work than the benchmark asked for
    (fewer trials, smaller K, a looser tolerance) is a failure."""
    asked = ("ibp-check", "--seed", "3", *IBP_ARGS)
    text = _cli_output(list(asked))
    assert check_suite_json(asked, text) == []
    for key, value in (("trials", 5), ("k_max", 64), ("tol", 1e-3), ("seed", 4)):
        report = json.loads(text)
        report["checks"][0]["params"][key] = value
        assert check_suite_json(asked, json.dumps(report)), key
    smaller = list(asked)
    smaller[smaller.index("--trials") + 1] = "5"
    assert check_suite_json(asked, _cli_output(smaller))


def test_null_count_routes_agree_on_pure_bidiagonal():
    sys.path.insert(0, str(ROOT / "src"))
    from qdisk import quantum_disk_weights
    from qdisk.nullity import count_null_bidiagonal, count_null_dense
    w = quantum_disk_weights(1.0)
    for k in ladder.DENSE_KS:
        diag, upper = ladder.recursion_bands(w, k)
        assert count_null_bidiagonal(diag, upper, k, k + 1, k).nullity == 1
        assert count_null_dense(ladder.recursion_dense(w, k, False), k).nullity == 1
        assert count_null_dense(ladder.recursion_dense(w, k, True), k).nullity == 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    ladder_names = [f"ladder.{fn}.K{k}_s" for k in ladder.KS for fn in (
        "weights.eval", "ncops.apply_D", "parametrix.apply_Q", "element.multiply",
        "element.restrict", "hilbert.inner_product_fourier",
        "nullity.count_null_bidiagonal")]
    ladder_names += [f"ladder.nullity.count_null_dense.K{k}_s" for k in ladder.DENSE_KS]
    expected = [m.name for m in LAYER_METRICS] + ["trace.wall_s", "trace.overhead_frac"]
    expected += ladder_names + ["ladder.nullity.routes_agree"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(expected)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    with pytest.raises(KeyError):
        run.unit_of("weights.a_at.self_s")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
