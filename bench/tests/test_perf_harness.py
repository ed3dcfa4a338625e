"""Self-tests of the benchmark harness (not of rawbench itself).

    python3 -m pytest -q bench/tests

Each workload runs once untraced and once traced, for the shortest run (one
block of latency_tail_ms), on a seed that is used nowhere else, so a
held-out seed is checked to run clean.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 90001
THREADS = {"synth": 2}  # bench --jobs 2; the others run on one thread


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            record = next(line for line in lines if line.startswith("run-record "))
            out[workload, trace] = (json.loads(lines[-1]),
                                    json.loads(record[len("run-record "):]))
    return out


def build_inputs(workload: str, seed: int, directory: Path) -> dict:
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import prepare; print(json.dumps(prepare.build_inputs(sys.argv[2], "
            "int(sys.argv[3]), Path(sys.argv[4]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), workload, str(seed),
                           str(directory)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixtures_are_byte_identical_per_seed(tmp_path, workload):
    plans = [build_inputs(workload, 7, tmp_path / d) for d in ("a", "b")]
    assert plans[0] == plans[1]
    assert files(tmp_path / "a") == files(tmp_path / "b")
    build_inputs(workload, 8, tmp_path / "c")
    assert files(tmp_path / "a") != files(tmp_path / "c")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(runs, workload, trace):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]


def test_every_layer_metric_is_exercised_by_some_workload(runs):
    for m in SPEC["per_layer"]:
        if m["name"] in ("trace.overhead", "check.error_rate"):
            continue  # may legitimately be zero everywhere
        assert any(runs[w, 1][0]["metrics"][m["name"]]["value"] for w in WORKLOADS), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_are_non_negative_and_fit_in_wall_time(runs, workload):
    result, record = runs[workload, 1]
    self_times = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".self_s")}
    assert record["min_span_self_s"] >= 0
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) <= record["traced_wall_s"] * THREADS.get(workload, 1)
    assert record["untraced_targets"] == []


def test_self_time_goes_negative_when_a_child_outlives_its_parent():
    spans = [["a", 0.0, 1.0, None, {}], ["b", 0.5, 1.5, 0, {}], ["c", 0.2, 0.4, 0, {}]]
    assert tracer.self_times(spans) == pytest.approx([-0.2, 1.0, 0.2])


@pytest.mark.parametrize("cycles", [1, 2, 3, 5, 6, 12])
def test_tail_cut_does_not_depend_on_the_number_of_cycles(cycles):
    # one cycle: six items of 1 ms, six of 5 ms and two of 20 ms; blocks of two
    cycle = [1.0] * 6 + [5.0] * 6 + [20.0] * 2
    items = [{"ms": ms} for _ in range(max(cycles, 2)) for ms in cycle]
    value, pct, beyond, per_block, blocks = run.tail(items, max(cycles, 2), 2)
    assert (value, beyond, per_block, blocks) == (5.0, 10, 28, max(cycles, 2) // 2)
    assert pct == pytest.approx(100 * 18 / 28)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_have_identical_digests(runs, workload):
    assert runs[workload, 1][1]["traced_outputs_identical"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("fit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def fit_refs(tmp_path_factory):
    """A prepared fit workload: inputs, plan and the frozen package's outputs."""
    work = tmp_path_factory.mktemp("fit")
    subprocess.run([sys.executable, str(BENCH / "prepare.py"), "--workload", "fit",
                    "--seed", str(HELD_OUT_SEED), "--dir", str(work)], check=True, timeout=300)
    return work


def check_fit_params(work: Path, out_dir: Path):
    """check.compare on job 0's params.json, with confirm_fit_params when pending."""
    item = json.loads((work / "plan.json").read_text())["items"][0]
    spec = item["outputs"][0]
    out, ref = out_dir / spec["path"], work / "oracle" / spec["path"]
    passed, exact = check.compare(out, ref, check.sha256(out), check.sha256(ref), spec["rule"])
    if passed != check.PENDING:
        return passed, exact
    job = {k: v.format(**{"in": work / "in"}) for k, v in spec["inputs"].items()}
    job.update(params=str(out), best=min(check.trace_losses(out.parent / "trace.csv")))
    return check.confirm_fit_params([job], out_dir / "jobs.json")[0], exact


def tamper(params: Path) -> None:
    obj = json.loads(params.read_text())
    obj["g"] *= 1.5
    params.write_text(json.dumps(obj))


@pytest.mark.parametrize("exact_trace", [True, False])
def test_fit_params_must_be_the_best_evaluations(fit_refs, tmp_path, exact_trace):
    job = json.loads((fit_refs / "plan.json").read_text())["items"][0]["outputs"][0]["path"]
    out = tmp_path / "out"
    shutil.copytree(fit_refs / "oracle" / Path(job).parent, out / Path(job).parent)
    if not exact_trace:  # same losses, other bytes: the parameters go to the frozen package
        with open(out / Path(job).parent / "trace.csv", "a") as f:
            f.write("\n")
    params = out / job
    assert check_fit_params(fit_refs, out) == (True, True)
    params.write_text(json.dumps(json.loads(params.read_text()), indent=1))  # other bytes
    assert check_fit_params(fit_refs, out) == (True, False)
    tamper(params)
    assert check_fit_params(fit_refs, out) == (False, False)
