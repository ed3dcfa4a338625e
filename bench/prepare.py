"""Build one workload's inputs from a seed, and record the reference outputs.

Run as a script before any timing, in its own process:

    python3 bench/prepare.py --workload develop --seed 1 --dir .bench_work/x

It imports the frozen copy of rawbench under bench/oracle, never the package
under test, so the inputs and the references are the same on every commit.
It writes:

- <dir>/in/      RAW containers, params, manifests and fit configs
- <dir>/oracle/  the frozen package's output for every item
- <dir>/plan.json  one cycle of items: the argv for `rawbench.cli.main`
  (with {in} and {out} placeholders), the output megapixels, and the
  outputs to check with the rule that compares each one
"""

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "oracle"))

import numpy as np  # noqa: E402

from rawbench import cli, corrupt, formats, isp, raw  # noqa: E402
from rawbench.fit import FIT_DIMS, LUT_DIMS, FitConfig  # noqa: E402
from rawbench.rng import RngStream  # noqa: E402

WORKLOADS = ("develop", "synth", "fit")

# develop: (side, kernel size, identity LUT). Sizes run from L2-resident to
# the ~1 GB NILUT peak at 1024^2; kernels from 9 to 21 taps; half the images
# carry an all-zero (identity) LUT. The mix puts the median among the 21-tap
# 256^2 items and the tail of each two-cycle block among the 21-tap 512^2
# items, so neither sits on the edge between two kinds of item.
DEVELOP_SLOTS = (
    [(256, k, i % 2 == 0) for i, k in enumerate((9, 11, 13, 15, 17, 19, 21, 21))]
    + [(512, 21, i % 2 == 0) for i in range(4)]
    + [(1024, 11, True), (1024, 19, False)]
)
# synth: one `bench --jobs 2` over all 17 kinds plus one `augment` per image.
# The corruption and augmentation seeds are fixed per image slot, not drawn
# from the benchmark seed: the sampled blur sizes and branch mix alone move a
# cycle's cost by about 20% from one seed to the next. The benchmark seed
# still sets every scene.
SYNTH_SIDES = (256, 256, 256, 512, 512)
SYNTH_AUGMENTS = 24
SYNTH_DRAW_SEED = 2503
# fit: each config once, three on a 128^2 scene and coordinate/l2 on a
# 256^2 one, so a cycle stays near 9 s. Every job's budget is 3 x dims + 1
# evaluations for the largest search space (17 dimensions, with the LUT; 14
# without): at least one and a half coordinate sweeps when every axis tries
# both directions, three when the first direction improves, and five
# generations of the evolution strategy. One budget for all keeps the three
# 128^2 jobs at about the same cost, so the median item lies among them.
FIT_JOBS = (
    (128, 0, {"loss": "l1", "optimizer": "coordinate"}),
    (128, 0, {"loss": "l1", "optimizer": "evolution"}),
    (128, 0, {"loss": "l1", "optimizer": "coordinate", "fit_lut": True}),
    (256, 1, {"loss": "l2", "optimizer": "coordinate"}),
)
# latency_tail_ms is taken over blocks of this many whole timed cycles, and a
# run always times at least one block, so the sample count, the percentile
# and the kind of item at the cut are the same on every commit: develop 28
# samples (p64.3, a 512^2 item), synth 30 (p66.7, a 512^2 item), fit 4 (the
# maximum, the 256^2 job).
TAIL_CYCLES = {"develop": 2, "synth": 3, "fit": 1}
FIT_BUDGET = 3 * (FIT_DIMS + LUT_DIMS) + 1
CFAS = tuple(raw.CfaPattern)


def scene(rng: RngStream, side: int) -> np.ndarray:
    """Linear RGB in [0, 1]: a two-colour gradient, coloured discs and
    fine per-pixel texture, all drawn from `rng`."""
    ys, xs = np.mgrid[0:side, 0:side] / side
    angle = 2.0 * math.pi * rng.uniform()
    t = xs * math.cos(angle) + ys * math.sin(angle)
    t = (t - t.min()) / (t.max() - t.min())
    c0 = 0.05 + 0.3 * rng.uniforms(3)
    c1 = 0.3 + 0.5 * rng.uniforms(3)
    img = c0 + t[..., None] * (c1 - c0)
    for _ in range(12):
        cx, cy, r = rng.uniforms(3)
        inside = (xs - cx) ** 2 + (ys - cy) ** 2 < (0.03 + 0.12 * r) ** 2
        img[inside] = 0.1 + 0.8 * rng.uniforms(3)
    img += 0.08 * (rng.uniforms(img.size).reshape(img.shape) - 0.5)
    return np.clip(img, 0.0, 1.0)


def write_scene(rng: RngStream, side: int, path: Path) -> None:
    """Mosaic a scene and write it as a RAW container with a non-zero black level."""
    bits = (12, 14, 16)[int(rng.integers(1, 3)[0])]
    white = 2 ** bits - 1
    black = int(white * (0.02 + 0.04 * rng.uniform()))
    cfa = CFAS[int(rng.integers(1, len(CFAS))[0])]
    bayer = raw.mosaic(raw.LinearRgbImage(scene(rng, side)), cfa, bit_depth=bits,
                       black_level=black, white_level=white)
    formats.write_raw(bayer, path, sensor_name="synthetic")


def radii_for(rng: RngStream, kernel: int):
    """(r1, r2) whose default support rule gives exactly `kernel` taps."""
    major = (kernel - 3) / 4 + 0.05 + 0.4 * rng.uniform()
    return major, major * (0.5 + 0.5 * rng.uniform())


def random_lut(rng: RngStream) -> isp.NilutWeights:
    dims = isp.NILUT_LAYER_DIMS
    layers = []
    for i in range(len(dims) - 1):
        scale = 0.05 if i == len(dims) - 2 else 1.0 / math.sqrt(dims[i])
        w = scale * rng.normals(dims[i] * dims[i + 1]).reshape(dims[i], dims[i + 1])
        layers.append((w, 0.02 * rng.normals(dims[i + 1])))
    return isp.NilutWeights(layers=tuple(layers))


def develop_params(rng: RngStream, kernel: int, identity_lut: bool) -> isp.IspParams:
    r1, r2 = radii_for(rng, kernel)
    return isp.IspParams(
        g=rng.uniform(0.8, 1.5), r1=r1, r2=r2, theta=0.0,
        sigma=rng.uniform(0.2, 0.8), rho=rng.uniform(1.0, 4.0),
        ccm=np.eye(3) + 0.08 * rng.normals(9).reshape(3, 3),
        lut=isp.NilutWeights.identity() if identity_lut else random_lut(rng))


def _image(path: str) -> dict:
    return {"path": path, "rule": "image"}


def build_develop(rng: RngStream, in_dir: Path) -> list:
    items = []
    for i, (side, kernel, identity_lut) in enumerate(DEVELOP_SLOTS):
        name = f"dev_{i:02d}"
        write_scene(rng.substream(i), side, in_dir / f"{name}.pgm")
        params = develop_params(rng.substream(100 + i), kernel, identity_lut)
        formats.write_isp_params(params, in_dir / f"{name}_params.json")
        items.append({
            "argv": ["develop", "--raw", f"{{in}}/{name}.pgm",
                     "--params", f"{{in}}/{name}_params.json",
                     "--out", f"{{out}}/{name}.ppm"],
            "mpix": side * side / 1e6,
            "outputs": [_image(f"{name}.ppm")],
        })
    return items


def build_synth(rng: RngStream, in_dir: Path) -> list:
    items = []
    for i, side in enumerate(SYNTH_SIDES):
        name = f"syn_{i}"
        write_scene(rng.substream(i), side, in_dir / f"{name}.pgm")
        slot = RngStream.from_seed(SYNTH_DRAW_SEED, stream_index=i)
        seeds = slot.integers(len(corrupt.KINDS) + 2, 2 ** 31)
        entries = [(name, corrupt.CorruptionSpec(kind=k, seed=int(s)))
                   for k, s in zip(corrupt.KINDS, seeds)]
        formats.write_bench_manifest(int(seeds[-2]), entries,
                                     in_dir / f"{name}_manifest.json")
        bench_out = f"{name}_bench"
        items.append({
            "argv": ["bench", "--manifest", f"{{in}}/{name}_manifest.json",
                     "--raw", f"{{in}}/{name}.pgm", "--out", f"{{out}}/{bench_out}",
                     "--jobs", "2"],
            "mpix": len(entries) * side * side / 1e6,
            "outputs": [_image(f"{bench_out}/{name}__{s.kind}__{s.seed}.ppm")
                        for _, s in entries]
            + [{"path": f"{bench_out}/hashes.txt", "rule": "hashes"}],
        })
        aug_out = f"{name}_aug"
        items.append({
            "argv": ["augment", "--input", f"{{in}}/{name}.pgm",
                     "--n", str(SYNTH_AUGMENTS), "--seed", str(int(seeds[-1])),
                     "--out", f"{{out}}/{aug_out}"],
            "mpix": SYNTH_AUGMENTS * side * side / 1e6,
            "outputs": [_image(f"{aug_out}/{name}_aug_{k:04d}.ppm")
                        for k in range(SYNTH_AUGMENTS)]
            + [{"path": f"{aug_out}/coefficients.csv", "rule": "csv"}],
        })
    return items


def build_fit(rng: RngStream, in_dir: Path) -> list:
    scenes = {}
    for side, scene_id, _ in FIT_JOBS:
        if scene_id in scenes:
            continue
        name = f"fit_{scene_id}"
        srng = rng.substream(scene_id)
        write_scene(srng, side, in_dir / f"{name}.pgm")
        # known parameters near g=1.3, r1=3, r2=2, sigma~0.73, rho=2
        u = srng.uniforms(5) - 0.5
        truth = isp.IspParams(
            g=1.3 + 0.2 * u[0], r1=3.0 + 0.6 * u[1], r2=2.0 + 0.6 * u[2],
            theta=0.0, sigma=0.73 + 0.1 * u[3], rho=2.0 + 0.6 * u[4],
            ccm=np.eye(3) + 0.05 * srng.normals(9).reshape(3, 3))
        bayer = formats.read_raw(in_dir / f"{name}.pgm")
        target = isp.develop(bayer, truth, kernel_size=FitConfig().kernel_size)
        formats.write_rgb(target, in_dir / f"{name}_target.ppm")
        scenes[scene_id] = name
    items = []
    for j, (side, scene_id, conf) in enumerate(FIT_JOBS):
        es_seed = int(rng.substream(300 + j).integers(1, 2 ** 31)[0])
        config = FitConfig(budget=FIT_BUDGET, seed=es_seed, **conf)
        formats.write_fit_config(config, in_dir / f"fit_job_{j}.json")
        name, out = scenes[scene_id], f"fit_job_{j}"
        items.append({
            "argv": ["fit", "--raw", f"{{in}}/{name}.pgm",
                     "--target", f"{{in}}/{name}_target.ppm",
                     "--fit-config", f"{{in}}/fit_job_{j}.json",
                     "--out", f"{{out}}/{out}"],
            "mpix": FIT_BUDGET * side * side / 1e6,
            "outputs": [{"path": f"{out}/params.json", "rule": "fit_params",
                         "inputs": {"raw": f"{{in}}/{name}.pgm",
                                    "target": f"{{in}}/{name}_target.ppm",
                                    "config": f"{{in}}/fit_job_{j}.json"}},
                        {"path": f"{out}/trace.csv", "rule": "fit_trace"}],
        })
    return items


def build_inputs(workload: str, seed: int, in_dir: Path) -> dict:
    """Write the workload's inputs under `in_dir` and return its plan."""
    in_dir.mkdir(parents=True, exist_ok=True)
    builder = {"develop": build_develop, "synth": build_synth, "fit": build_fit}[workload]
    items = builder(RngStream.from_seed(seed, stream_index=WORKLOADS.index(workload)), in_dir)
    return {"workload": workload, "seed": seed, "tail_cycles": TAIL_CYCLES[workload],
            "items": items}


def resolve(argv: list, in_dir: Path, out_dir: Path) -> list:
    return [a.format(**{"in": in_dir, "out": out_dir}) for a in argv]


def record_oracle(plan: dict, in_dir: Path, oracle_dir: Path) -> None:
    """Run every item once with the frozen package; its files are the references."""
    oracle_dir.mkdir(parents=True, exist_ok=True)
    for item in plan["items"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(resolve(item["argv"], in_dir, oracle_dir))
        if code != 0:
            raise SystemExit(f"reference run failed with exit {code}: {item['argv']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    plan = build_inputs(args.workload, args.seed, args.dir / "in")
    record_oracle(plan, args.dir / "in", args.dir / "oracle")
    (args.dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")


if __name__ == "__main__":
    main()
