"""rawbench benchmark: run one workload and print every metric by name.

    python3 bench/run.py --workload develop --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it works under <root>/.bench_work and
removes that run's files when done. Steps, each in its own process:

1. prepare.py builds the inputs from --seed and the reference outputs with
   the frozen package in bench/oracle.
2. PROBES fresh interpreters time set-up: `import rawbench` plus the first
   item.
3. worker.py measures: set-up again, 2 s of untimed items, then whole
   cycles of the workload for --seconds, checking every output; with
   --trace 1 it adds one traced cycle.

With --trace 0 the last line holds the end-to-end metrics named in
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines above it
are a readable table, including fit_loss and error_rate, and a run record.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2


def child(argv: list, log: Path, timeout: float) -> None:
    """Run a Python script to completion; its output goes to `log`."""
    with open(log, "a") as f:
        code = subprocess.run([sys.executable, *map(str, argv)], stdout=f,
                              stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout).returncode
    if code:
        sys.exit(f"{Path(argv[0]).name} exited with {code}; see {log}")


def block_tail(ms: list):
    """(value, percentile, samples beyond) of one block: the highest
    percentile that has at least ten samples beyond it, or the maximum when
    that percentile would not lie above the median."""
    s, n = sorted(ms), len(ms)
    if n < 21:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def tail(items: list, cycles: int, block_cycles: int):
    """(value, percentile, samples beyond, samples per block, blocks): the
    median over blocks of `block_cycles` whole timed cycles of each block's
    tail. The block size is fixed per workload, so the percentile and the
    kind of item at the cut do not depend on how many cycles a run fits in."""
    per_block = len(items) // cycles * block_cycles
    blocks = [[i["ms"] for i in items[b:b + per_block] if i["ms"] is not None]
              for b in range(0, len(items) - per_block + 1, per_block)]
    tails = [block_tail(ms) for ms in blocks]
    return (statistics.median(t[0] for t in tails), tails[0][1], tails[0][2],
            per_block, len(blocks))


def throughput(items: list) -> float:
    """Output Mpix of one cycle's passing items over the summed median wall
    time of each item across cycles, so one stalled call does not move it."""
    runs = {}
    for i in items:
        runs.setdefault(i["index"], []).append(i)
    mpix = sum(r[0]["mpix"] for r in runs.values() if all(i["ok"] for i in r))
    ms = [statistics.median(i["ms"] for i in r) for r in runs.values()
          if all(i["ms"] is not None for i in r)]
    return mpix / (sum(ms) / 1e3)


def run_record(args, worker: dict) -> dict:
    src = sorted((ROOT / "src" / "rawbench").glob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        **worker["versions"], "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("develop", "synth", "fit"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rawbench" / "__init__.py").is_file():
        sys.exit(f"no rawbench package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work.parent / f"{work.name}.log"
    log.unlink(missing_ok=True)
    try:
        child([HERE / "prepare.py", "--workload", args.workload, "--seed", args.seed,
               "--dir", work], log, timeout=150)
        setups = []
        for k in range(PROBES):
            child([HERE / "worker.py", "--dir", work, "--seconds", 0, "--probe",
                   "--result", work / f"probe{k}.json"], log, timeout=60)
            setups.append(json.loads((work / f"probe{k}.json").read_text())["setup_s"])
        child([HERE / "worker.py", "--dir", work, "--seconds", args.seconds,
               "--result", work / "result.json"] + (["--trace"] if args.trace else []),
              log, timeout=args.seconds + 150)
        worker = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log.unlink()  # kept only when a step failed

    items = worker["items"]
    done = worker["warmup"] + items + worker.get("trace", {}).get("items", [])
    failed = sum(not i["ok"] for i in done)
    outputs = sum(i["outputs"] for i in done)
    exact = sum(i["exact"] for i in done)
    ms = [i["ms"] for i in items if i["ms"] is not None]
    tail_ms, tail_pct, beyond, per_block, blocks = tail(items, worker["cycles"],
                                                        worker["tail_cycles"])
    fit_losses = [i["fit_loss"] for i in items if "fit_loss" in i]
    values = {
        "setup_s": statistics.median(setups + [worker["setup_s"]]),
        "throughput_mpix_s": throughput(items),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": worker["peak_rss_mb"],
        "check.error_rate": failed / len(done),
        "check.bit_exact_share": exact / outputs,
        "fit.final_loss": statistics.fmean(fit_losses) if fit_losses else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setups) + 1} fresh interpreters",
        "latency_tail_ms": f"p{tail_pct:.1f}: {beyond} of {per_block} samples beyond, "
                           f"median of {blocks} blocks",
    }
    record = run_record(args, worker)
    record.update(cycles=worker["cycles"], timed_items=len(items),
                  tail_percentile=tail_pct, tail_samples=per_block, tail_blocks=blocks)
    if "trace" in worker:
        trace = worker["trace"]
        values.update(trace["layers"])
        values["trace.untraced_mpix_s"] = values["throughput_mpix_s"]
        values["trace.traced_mpix_s"] = throughput(trace["items"])
        values["trace.overhead"] = values["trace.untraced_mpix_s"] / values["trace.traced_mpix_s"] - 1
        record.update(
            traced_wall_s=sum(i["ms"] or 0.0 for i in trace["items"]) / 1e3,
            min_span_self_s=trace["min_self_s"], untraced_targets=trace["missing"],
            traced_outputs_identical=all(i["same_as_untraced"] for i in trace["items"]))

    print(f"rawbench benchmark: workload {args.workload}, seed {args.seed}, "
          f"{worker['cycles']} cycles, {len(items)} timed items")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<20} {values[m['name']]:>12.4f} {m['unit']:<8} {notes.get(m['name'], '')}")
    if fit_losses:
        print(f"  {'fit_loss':<20} {values['fit.final_loss']:>12.6f} {'loss':<8} "
              f"mean best loss over {len(fit_losses)} fit jobs")
    print(f"  {'error_rate':<20} {values['check.error_rate']:>12.4f} {'fraction':<8} "
          f"{failed} of {len(done)} items failed; {exact} of {outputs} outputs bit-exact")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {values.get(m['name'], 0.0):>14.6g} {m['unit']}")
    print("run-record " + json.dumps(record, sort_keys=True))
    group = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": len(done), "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in group},
    }))


if __name__ == "__main__":
    main()
