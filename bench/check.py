"""Compare an item's outputs with the reference files the frozen package wrote.

An output passes when its SHA-256 equals the reference's (it is then
bit-exact). Otherwise it passes only under its rule's tolerance:

- image: both PPMs decode to the same shape, and every 16x16-block channel
  mean differs by at most BLOCK_TOL (on the [0, 1] scale)
- fit_trace: the same number of evaluations, all finite, and a best loss no
  more than FIT_LOSS_TOL (relative) above the reference's best
- fit_params: a JSON object with the same fields, all numbers finite. When
  the job's trace.csv is bit-exact, the fit is the reference's, so every
  number must equal the reference's to PARAMS_REL_TOL. Otherwise the result
  is PENDING: `confirm_fit_params` develops the written parameters with the
  frozen package (refloss.py, in its own process), and their loss against
  the target must equal the trace's best loss to FIT_LOSS_TOL (relative)
- hashes: the same (image_id, kind, seed) lines, each hash being the SHA-256
  of the file it names
- csv: the same cells, numbers equal to 1e-9 relative

Decoding uses numpy only, never the package under test.
"""

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BLOCK = 16
BLOCK_TOL = 2e-3
FIT_LOSS_TOL = 0.05
PARAMS_REL_TOL = 1e-9
PENDING = "pending"  # passes only once confirm_fit_params says so


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_ppm(path: Path) -> np.ndarray:
    """Binary P6 (maxval 255 or 65535) scaled to [0, 1]; no comments."""
    data = path.read_bytes()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P6":
        raise ValueError(f"{path}: not a P6 file")
    width, height, maxval = int(width), int(height), int(maxval)
    payload = data[len(data) - width * height * 3 * (2 if maxval > 255 else 1):]
    dtype = ">u2" if maxval > 255 else np.uint8
    return np.frombuffer(payload, dtype=dtype).reshape(height, width, 3) / maxval


def block_means(img: np.ndarray) -> np.ndarray:
    h, w, c = img.shape
    hb, wb = h // BLOCK, w // BLOCK
    return img[:hb * BLOCK, :wb * BLOCK].reshape(hb, BLOCK, wb, BLOCK, c).mean(axis=(1, 3))


def _image_close(out: Path, ref: Path) -> bool:
    a, b = read_ppm(out), read_ppm(ref)
    return a.shape == b.shape and float(
        np.max(np.abs(block_means(a) - block_means(b)))) <= BLOCK_TOL


def trace_losses(path: Path) -> list:
    with open(path, newline="") as f:
        return [float(row["loss"]) for row in csv.DictReader(f)]


def _fit_trace_close(out: Path, ref: Path) -> bool:
    got, want = trace_losses(out), trace_losses(ref)
    return (len(got) == len(want) and all(map(math.isfinite, got))
            and min(got) <= min(want) * (1.0 + FIT_LOSS_TOL))


def _reject(token: str):
    raise ValueError(f"non-finite number {token}")


def _same_numbers(a, b) -> bool:
    """Equal structure, numbers equal to PARAMS_REL_TOL, anything else equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_numbers(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_numbers, a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=PARAMS_REL_TOL, abs_tol=1e-15)
    return a == b


def _fit_params_close(out: Path, ref: Path):
    got = json.loads(out.read_text(), parse_constant=_reject)
    want = json.loads(ref.read_text())
    if sha256(out.parent / "trace.csv") == sha256(ref.parent / "trace.csv"):
        return _same_numbers(got, want)
    return PENDING if got.keys() == want.keys() else False


def _hashes_close(out: Path, ref: Path) -> bool:
    got = [line.split(",") for line in out.read_text().splitlines()]
    want = [line.split(",") for line in ref.read_text().splitlines()]
    return [g[:3] for g in got] == [w[:3] for w in want] and all(
        g[3] == sha256(out.parent / f"{g[0]}__{g[1]}__{g[2]}.ppm") for g in got)


def _cell_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:
        return False


def _csv_close(out: Path, ref: Path) -> bool:
    got = [line.split(",") for line in out.read_text().splitlines()]
    want = [line.split(",") for line in ref.read_text().splitlines()]
    return [len(r) for r in got] == [len(r) for r in want] and all(
        _cell_close(a, b) for g, w in zip(got, want) for a, b in zip(g, w))


RULES = {
    "image": _image_close,
    "fit_trace": _fit_trace_close,
    "fit_params": _fit_params_close,
    "hashes": _hashes_close,
    "csv": _csv_close,
}


def compare(out: Path, ref: Path, out_sha, ref_sha: str, rule: str):
    """(passed, bit_exact) for one output against its reference; `out_sha`
    is None when the output is missing. `passed` is PENDING for fit
    parameters that `confirm_fit_params` has yet to judge."""
    if out_sha is None:
        return False, False
    if out_sha == ref_sha:
        return True, True
    try:
        return RULES[rule](out, ref), False
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"check: {out}: {exc!r}")
        return False, False


def confirm_fit_params(jobs: list, jobs_file: Path) -> list:
    """For each job ({"params", "raw", "target", "config"} paths and "best",
    the best loss its trace.csv reports), whether the frozen package's loss
    for the written parameters equals "best" to FIT_LOSS_TOL. One process
    scores every job; call it after timing."""
    jobs_file.write_text(json.dumps(jobs))
    proc = subprocess.run([sys.executable, str(HERE / "refloss.py"), str(jobs_file)],
                          capture_output=True, text=True, timeout=150)
    if proc.returncode:
        print(f"check: refloss.py exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return [False] * len(jobs)
    losses = json.loads(proc.stdout.splitlines()[-1])
    return [loss is not None and abs(loss - job["best"]) <= FIT_LOSS_TOL * job["best"]
            for job, loss in zip(jobs, losses)]
