"""Command-line front end. Each subcommand is a thin validated wrapper over
one library operation; all randomness flows from --seed (or RAWBENCH_SEED),
and batch parallelism only ever spans whole images so --jobs never changes
results.

Exit codes: 0 success, 2 usage, 3 missing side input, 4 file/schema error,
5 invalid parameters or dimensions, 6 undefined metric, 1 unexpected.
"""

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import augment as aug
from . import corrupt as cor
from . import formats as fmt
from . import isp
from . import metrics as met
from . import raw as rawmod
from .errors import (DimensionError, FormatError, MetricError,
                     MissingDependencyError, ParameterError)
from .fit import FitConfig, fit_isp_params
from .rng import RngStream, derive_key

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_DEP = 3
EXIT_FORMAT = 4
EXIT_INVALID = 5
EXIT_METRIC = 6
EXIT_UNEXPECTED = 1


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("RAWBENCH_SEED", "0"))


def _load_input_rgb(path) -> rawmod.LinearRgbImage:
    """RAW containers (P5 + sidecar) are demosaiced; P6 files load directly."""
    magic = Path(path).read_bytes()[:2]
    if magic == b"P6":
        return fmt.read_rgb(path)
    return rawmod.demosaic_bilinear(fmt.read_raw(path))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_develop(args) -> int:
    bayer = fmt.read_raw(args.raw)
    params = fmt.read_isp_params(args.params) if args.params else isp.IspParams.identity()
    if args.dump_stages:
        out, stages = isp.develop(bayer, params, kernel_size=args.kernel_size,
                                  return_stages=True)
    else:
        out = isp.develop(bayer, params, kernel_size=args.kernel_size)
    mode = "display8_ppm" if args.display8 else "linear16_ppm"
    fmt.write_rgb(out, args.out, mode=mode, gamma=args.gamma)
    if args.dump_stages:
        stage_dir = Path(args.dump_stages)
        stage_dir.mkdir(parents=True, exist_ok=True)
        for name, img in {**stages, "final": out}.items():
            fmt.write_rgb(img, stage_dir / f"{name}.ppm")
    return EXIT_OK


def _spec_for(kind: str, seed: int) -> cor.CorruptionSpec:
    return cor.CorruptionSpec(kind=kind, seed=seed, params={})


def _run_entry(entry_args):
    """One (image_id, spec) job; used by both sweep and bench."""
    image_id, spec, rgb, depth, flare, out_dir = entry_args
    if depth is None and spec.kind in ("fog", "rain_fog"):
        depth = cor.procedural_depth(rgb.height, rgb.width, spec.seed)
    result = cor.apply_corruption(spec, rgb, depth=depth, flare=flare)
    out_path = Path(out_dir) / f"{image_id}__{spec.kind}__{spec.seed}.ppm"
    fmt.write_rgb(result, out_path)
    return f"{image_id},{spec.kind},{spec.seed},{_sha256(out_path)}"


def cmd_corrupt(args) -> int:
    rgb = _load_input_rgb(args.input)
    depth = fmt.read_depth(args.depth) if args.depth else None
    flare = fmt.read_asset(args.flare) if args.flare else None
    seed = _default_seed(args.seed)
    if args.sweep:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        image_id = Path(args.input).stem
        entries = [(image_id, cor.CorruptionSpec(kind=k, seed=derive_key(seed, i) % 2**31))
                   for i, k in enumerate(cor.KINDS)]
        jobs = [(image_id, spec, rgb, depth, flare, out_dir)
                for _, spec in entries]
        lines = _parallel_map(_run_entry, jobs, args.jobs)
        (out_dir / "hashes.txt").write_text("\n".join(lines) + "\n")
        fmt.write_bench_manifest(seed, entries, out_dir / "manifest.json")
        return EXIT_OK
    if args.spec:
        spec = fmt.read_corruption_spec(args.spec)
    elif args.kind:
        spec = _spec_for(args.kind, seed)
    else:
        print("corrupt: need --spec or --kind", file=sys.stderr)
        return EXIT_USAGE
    result = cor.apply_corruption(spec, rgb, depth=depth, flare=flare)
    fmt.write_rgb(result, args.out)
    return EXIT_OK


def cmd_augment(args) -> int:
    rgb = _load_input_rgb(args.input)
    config = (fmt.read_augment_config(args.augment_config)
              if args.augment_config else aug.AugmentConfig())
    seed = _default_seed(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    columns = ["sample_index", "branch", "omega", "omega_r", "omega_g",
               "omega_b", "kind", "size", "angle", "r1", "r2", "awgn_sigma"]
    rows = []
    for i in range(args.n):
        rng = RngStream.from_seed(seed, stream_index=i)
        out, branch, params = aug.augment_pipeline(rgb, config, rng)
        fmt.write_rgb(out, out_dir / f"{stem}_aug_{i:04d}.ppm")
        rows.append([str(i), branch] + [str(params.get(c, ""))
                                        for c in columns[2:]])
    lines = [",".join(columns)] + [",".join(r) for r in rows]
    (out_dir / "coefficients.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    master_seed, entries = fmt.read_bench_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    depth = fmt.read_depth(args.depth) if args.depth else None
    flare = fmt.read_asset(args.flare) if args.flare else None
    cache: dict[str, rawmod.LinearRgbImage] = {}

    def rgb_for(image_id: str):
        if image_id not in cache:
            if args.raw:
                cache[image_id] = _load_input_rgb(args.raw)
            elif args.input_dir:
                cache[image_id] = _load_input_rgb(
                    Path(args.input_dir) / f"{image_id}.pgm")
            else:
                raise MissingDependencyError("raw or input-dir")
        return cache[image_id]

    jobs = [(image_id, spec, rgb_for(image_id), depth, flare, out_dir)
            for image_id, spec in entries]
    lines = _parallel_map(_run_entry, jobs, args.jobs)
    (out_dir / "hashes.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    bayer = fmt.read_raw(args.raw)
    target = fmt.read_rgb(args.target)
    config = fmt.read_fit_config(args.fit_config) if args.fit_config else FitConfig()
    params, trace = fit_isp_params(bayer, target, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt.write_isp_params(params, out_dir / "params.json")
    fmt.write_fit_trace(trace, out_dir / "trace.csv")
    best = min(loss for _, _, loss in trace.entries)
    print(f"best loss {best:.6g} after {len(trace.entries)} evaluations")
    return EXIT_OK


def cmd_visualize(args) -> int:
    bayer = fmt.read_raw(args.raw)
    fmt.write_gray8(rawmod.visualize_raw(bayer), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    records = fmt.read_eval_records(args.records)
    report = met.build_report(records, args.reference)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(fmt.report_to_json(report), indent=2, sort_keys=True) + "\n")
    table = met.format_report_table(report)
    (out_dir / "report.txt").write_text(table)
    print(table, end="")
    return EXIT_OK


def _parallel_map(fn, jobs, n_jobs):
    if n_jobs and n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rawbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("develop", help="run the full pipeline on a RAW container")
    p.add_argument("--raw", required=True)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.add_argument("--display8", action="store_true")
    p.add_argument("--gamma", type=float, default=2.2)
    p.add_argument("--kernel-size", type=int, default=None)
    p.add_argument("--dump-stages")
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("corrupt", help="apply one corruption (or --sweep all 17)")
    p.add_argument("--input", required=True)
    p.add_argument("--spec")
    p.add_argument("--kind", choices=cor.KINDS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--depth")
    p.add_argument("--flare")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("augment", help="emit n augmented variants + coefficients")
    p.add_argument("--input", required=True)
    p.add_argument("--augment-config")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bench", help="execute a benchmark manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--raw", help="single fixture used for every entry")
    p.add_argument("--input-dir", help="directory of <image_id>.pgm containers")
    p.add_argument("--out", required=True)
    p.add_argument("--depth")
    p.add_argument("--flare")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fit", help="fit pipeline parameters to a target image")
    p.add_argument("--raw", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fit-config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("visualize", help="green-average RAW visualization")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("report", help="CD/rCD report from evaluation records")
    p.add_argument("--records", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingDependencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_DEP
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except (ParameterError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MetricError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_METRIC
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
