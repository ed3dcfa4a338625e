"""Run one workload's plan in-process against the package under test.

    python3 bench/worker.py --dir <work dir> --seconds 20 --result r.json [--probe] [--trace]

One closed-loop client calls `rawbench.cli.main(argv)` for each item in
turn. Set-up is the time from the start of the interpreter's first
statement to the end of `import rawbench`, plus the first, untimed warm-up
item; with --probe the process stops there. Otherwise it runs untimed
items for WARMUP_S more, then whole timed cycles of the plan until
--seconds have passed (at least the plan's tail_cycles), checks every
output against the references, and with --trace runs one more cycle under
the tracer. Fit parameters that need the frozen package to judge them are
scored once, after all timing. Results go to --result as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rawbench import cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import check  # noqa: E402

WARMUP_S = 2.0


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.plan = json.loads((work / "plan.json").read_text())
        self.in_dir, self.out_dir, self.ref_dir = work / "in", work / "out", work / "oracle"
        self.out_dir.mkdir(exist_ok=True)
        self.ref_sha = {}  # output path -> SHA-256 of its reference
        self.digests = {}  # output path -> SHA-256 of its latest untraced run
        self.pending = {}  # key -> fit-parameter job for check.confirm_fit_params

    def run(self, index: int) -> float:
        """Run item `index` once; returns its wall time in ms, or None if it failed to run."""
        item = self.plan["items"][index]
        for out in item["outputs"]:
            (self.out_dir / out["path"]).unlink(missing_ok=True)
        argv = [a.format(**{"in": self.in_dir, "out": self.out_dir}) for a in item["argv"]]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit):  # a crash is one failed item, not a failed run
            traceback.print_exc()
            code = None
        ms = (time.perf_counter() - start) * 1e3
        if code != 0:
            print(f"item {index} exited with {code}", file=sys.stderr)
        return ms if code == 0 else None

    def verify(self, index: int, traced: bool = False) -> dict:
        """Compare item `index`'s outputs with the references."""
        item = self.plan["items"][index]
        passed = exact = 0
        same = True
        pending = []
        for out in item["outputs"]:
            path = self.out_dir / out["path"]
            ref = self.ref_dir / out["path"]
            if out["path"] not in self.ref_sha:
                self.ref_sha[out["path"]] = check.sha256(ref)
            sha = check.sha256(path) if path.is_file() else None
            ok, bit_exact = check.compare(path, ref, sha, self.ref_sha[out["path"]], out["rule"])
            if ok == check.PENDING:
                ok = self.hold(index, out, path, sha)
                pending += [f"{index}_{sha}"] if ok else []
            if not ok:
                print(f"item {index}: {out['path']} differs from the reference",
                      file=sys.stderr)
            passed += ok
            exact += bit_exact
            if traced:
                same &= self.digests.get(out["path"]) == sha
            else:
                self.digests[out["path"]] = sha
        result = {"ok": passed == len(item["outputs"]), "exact": exact,
                  "outputs": len(item["outputs"]), "same_as_untraced": same,
                  "pending": pending}
        trace_csv = [o for o in item["outputs"] if o["rule"] == "fit_trace"]
        if result["ok"] and trace_csv:
            result["fit_loss"] = min(check.trace_losses(self.out_dir / trace_csv[0]["path"]))
        return result

    def hold(self, index: int, out: dict, path: Path, sha: str) -> bool:
        """Keep a copy of fit parameters for `confirm`; False if the job's
        trace gives no best loss to compare them with."""
        try:
            best = min(check.trace_losses(path.parent / "trace.csv"))
        except (OSError, ValueError, KeyError):
            return False
        key = f"{index}_{sha}"
        if key not in self.pending:
            held = self.work / "pending" / f"{key}.json"
            held.parent.mkdir(exist_ok=True)
            shutil.copyfile(path, held)
            inputs = {k: v.format(**{"in": self.in_dir}) for k, v in out["inputs"].items()}
            self.pending[key] = {"params": str(held), "best": best, **inputs}
        return True

    def confirm(self, records: list) -> None:
        """Fail the items whose held fit parameters the frozen package rejects."""
        keys = sorted(self.pending)
        verdicts = dict(zip(keys, check.confirm_fit_params(
            [self.pending[k] for k in keys], self.work / "pending.json"))) if keys else {}
        for record in records:
            rejected = [k for k in record.pop("pending") if not verdicts[k]]
            if rejected:
                record["ok"] = False
                print(f"item {record['index']}: fit parameters do not give the trace's "
                      "best loss", file=sys.stderr)

    def item(self, index: int, traced: bool = False) -> dict:
        ms = self.run(index)
        record = self.verify(index, traced)
        record.update(index=index, ms=ms, ok=record["ok"] and ms is not None,
                      mpix=self.plan["items"][index]["mpix"])
        return record

    def cycle(self, traced: bool = False) -> list:
        return [self.item(index, traced) for index in range(len(self.plan["items"]))]


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    runner = Runner(args.dir)
    warmup_ms = runner.run(0)
    result = {"setup_s": IMPORT_S + (warmup_ms or 0.0) / 1e3, "versions": versions()}
    if not args.probe:
        warmup = runner.verify(0)
        warmup.update(index=0, ms=warmup_ms, ok=warmup["ok"] and warmup_ms is not None)
        # Item times settle only after a few seconds of work, so untimed items
        # run for WARMUP_S first.
        warmup, warm_until = [warmup], time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:
            warmup.append(runner.item(len(warmup) % len(runner.plan["items"])))
        items, cycles = [], 0
        deadline = time.perf_counter() + args.seconds
        while cycles < runner.plan["tail_cycles"] or time.perf_counter() < deadline:
            items += runner.cycle()
            cycles += 1
        result.update(warmup=warmup, items=items, cycles=cycles,
                      tail_cycles=runner.plan["tail_cycles"],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        traced = []
        if args.trace:
            import tracer
            t = tracer.Tracer()
            t.install()
            traced = runner.cycle(traced=True)
            result["trace"] = {
                "items": traced, "layers": tracer.summarize(t.spans),
                "min_self_s": min(tracer.self_times(t.spans)), "missing": sorted(t.missing)}
        runner.confirm(warmup + items + traced)
    args.result.write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
