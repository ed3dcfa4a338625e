"""Command-line front end. Each subcommand is a thin validated wrapper over
one library operation; all randomness flows from --seed (0 when omitted).
`augment` spreads its samples over the CPUs the process may use, and
`bench` and `corrupt --sweep` spread their entries over --jobs threads
(`pool.parallel_map`). Each sample or entry draws from its own stream and
writes its own file, so neither the thread count nor --jobs changes results.

params.json does not hold the fit's kernel size (13 taps by default): pass
it to `develop --kernel-size`, which otherwise uses `default_kernel_size`.

A bench manifest's master_seed records the seed from which `corrupt
--sweep` derived each entry's seed. `bench` does not read it: it replays
each entry from the entry's own seed.

Exit codes (EXIT_CODES maps the errors; the first matching row wins):
  0  success
  2  usage: argparse refused the command line (an unknown option or kind, a
     missing or conflicting input flag, an option the mode ignores, --jobs
     or --n below 1, --seed outside [0, 2^64))
  4  FormatError: a file failed validation (formats.E_* codes)
  5  ParameterError, DimensionError: invalid parameters or dimensions
  6  MetricError: the metric is undefined for the records
  4  OSError: an input that cannot be read or an output that cannot be written
  1  anything else (a traceback)
"""

import argparse
import hashlib
import sys
from pathlib import Path

from . import augment as aug
from . import corrupt as cor
from . import formats as fmt
from . import isp
from . import metrics as met
from . import raw as rawmod
from .errors import DimensionError, FormatError, MetricError, ParameterError
from .fit import FitConfig, fit_isp_params
from .pool import parallel_map
from .rng import RngStream, check_seed, derive_key

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own SystemExit code
EXIT_FORMAT = 4
EXIT_INVALID = 5
EXIT_METRIC = 6

# (error class, exit code), checked in order
EXIT_CODES = (
    (FormatError, EXIT_FORMAT),
    (ParameterError, EXIT_INVALID),
    (DimensionError, EXIT_INVALID),
    (MetricError, EXIT_METRIC),
    (OSError, EXIT_FORMAT),
)


def _positive_int(text: str) -> int:
    """argparse type of --jobs and --n."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed (`rng.check_seed`)."""
    try:
        return check_seed(int(text))
    except ValueError:  # not an integer, or a ParameterError: not a seed
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2^64), not {text!r}") from None


def _load_input_rgb(path) -> rawmod.LinearRgbImage:
    """RAW containers (P5 + sidecar) are demosaiced; P6 files load directly."""
    with open(path, "rb") as f:
        magic = f.read(2)
    if magic == b"P6":
        return fmt.read_rgb(path)
    return rawmod.demosaic_bilinear(fmt.read_raw(path))


def cmd_develop(args) -> int:
    bayer = fmt.read_raw(args.raw)
    params = fmt.read_isp_params(args.params) if args.params else isp.IspParams.identity()
    stages = {}
    if args.dump_stages:
        stage_dir = Path(args.dump_stages)
        stage_dir.mkdir(parents=True, exist_ok=True)  # fails before --out is written
        demosaiced = rawmod.demosaic_bilinear(bayer)  # the reference, one thread
        out, stages = isp.develop_linear(demosaiced, params, args.kernel_size,
                                         return_stages=True)
        stages = {"demosaiced": demosaiced, **stages, "final": out}
    else:
        out = isp.develop(bayer, params, kernel_size=args.kernel_size)
    mode = "display8_ppm" if args.display8 else "linear16_ppm"
    fmt.write_rgb(out, args.out, mode, 2.2 if args.gamma is None else args.gamma)
    for name, img in stages.items():
        fmt.write_rgb(img, stage_dir / f"{name}.ppm")
    return EXIT_OK


def _run_entry(entry_args):
    """One (image_id, spec) job; used by both sweep and bench."""
    image_id, spec, rgb, depth, flare, out_dir = entry_args
    result = cor.apply_corruption(spec, rgb, depth=depth, flare=flare)
    out_path = Path(out_dir) / f"{image_id}__{spec.kind}__{spec.seed}.ppm"
    fmt.write_rgb(result, out_path)
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return f"{image_id},{spec.kind},{spec.seed},{digest}"


def _run_entries(entries, rgb_for, depth, flare, out_dir: Path, n_jobs: int):
    """Run (image_id, spec) entries on n_jobs threads, each into its own
    file under out_dir, and list their hashes in out_dir/hashes.txt.
    `rgb_for(image_id)` loads every input, and each entry's side layers are
    checked against its image, before out_dir is created."""
    jobs = [(image_id, spec, rgb_for(image_id), depth, flare, out_dir)
            for image_id, spec in entries]
    for _, spec, rgb, *_ in jobs:
        cor.check_side_layers(spec, rgb, depth, flare)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = parallel_map(_run_entry, jobs, n_jobs)
    (out_dir / "hashes.txt").write_text("\n".join(lines) + "\n")


def cmd_corrupt(args) -> int:
    rgb = _load_input_rgb(args.input)
    depth = fmt.read_depth(args.depth) if args.depth else None
    flare = fmt.read_asset(args.flare) if args.flare else None
    seed = args.seed or 0  # None without --seed
    if args.sweep:
        image_id = Path(args.input).stem  # the manifest's id: checked first
        fmt.check_image_id(image_id, f"{args.input}: input stem")
        out_dir = Path(args.out)
        entries = [(image_id, cor.CorruptionSpec(kind=k, seed=derive_key(seed, i) % 2**31))
                   for i, k in enumerate(cor.KINDS)]
        _run_entries(entries, lambda _: rgb, depth, flare, out_dir, args.jobs or 1)
        fmt.write_bench_manifest(seed, entries, out_dir / "manifest.json")
        return EXIT_OK
    spec = (fmt.read_corruption_spec(args.spec) if args.spec
            else cor.CorruptionSpec(kind=args.kind, seed=seed))
    result = cor.apply_corruption(spec, rgb, depth=depth, flare=flare)
    fmt.write_rgb(result, args.out)
    return EXIT_OK


def cmd_augment(args) -> int:
    rgb = _load_input_rgb(args.input)
    config = (fmt.read_augment_config(args.augment_config)
              if args.augment_config else aug.AugmentConfig())
    out_dir = Path(args.out)
    stem = Path(args.input).stem

    def sample(i):
        """Sample i from its own stream; returns its coefficient row."""
        rng = RngStream.from_seed(args.seed, stream_index=i)
        out, branch, params = aug.augment_pipeline(rgb, config, rng)
        out_dir.mkdir(parents=True, exist_ok=True)  # no --out if every draw fails
        fmt.write_rgb(out, out_dir / f"{stem}_aug_{i:04d}.ppm")
        return [str(i), branch] + [str(params.get(k, "")) for k in aug.PARAM_KEYS]

    rows = parallel_map(sample, range(args.n))
    header = ("sample_index", "branch") + aug.PARAM_KEYS
    lines = [",".join(header)] + [",".join(r) for r in rows]
    (out_dir / "coefficients.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    _, entries = fmt.read_bench_manifest(args.manifest)
    depth = fmt.read_depth(args.depth) if args.depth else None
    flare = fmt.read_asset(args.flare) if args.flare else None
    cache: dict[str, rawmod.LinearRgbImage] = {}

    def rgb_for(image_id: str):
        path = args.raw or str(Path(args.input_dir) / f"{image_id}.pgm")
        if path not in cache:
            cache[path] = _load_input_rgb(path)
        return cache[path]

    _run_entries(entries, rgb_for, depth, flare, Path(args.out), args.jobs)
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
    best = min(loss for _, loss in trace)
    print(f"best loss {best:.6g} after {len(trace)} evaluations; "
          f"develop with --kernel-size {config.kernel_size} to reproduce it")
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
    fmt.write_json(fmt.report_to_json(report), out_dir / "report.json")
    table = met.format_report_table(report)
    (out_dir / "report.txt").write_text(table)
    print(table, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rawbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("develop", help="run the full pipeline on a RAW container")
    p.add_argument("--raw", required=True)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.add_argument("--display8", action="store_true")
    p.add_argument("--gamma", type=float, help="with --display8 only (default 2.2)")
    p.add_argument("--kernel-size", type=int, default=None)
    p.add_argument("--dump-stages")
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("corrupt", help="apply one corruption (or --sweep all 17)")
    p.add_argument("--input", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--kind", choices=cor.KINDS)
    source.add_argument("--sweep", action="store_true")
    p.add_argument("--seed", type=_seed, help="default 0; not with --spec")
    p.add_argument("--out", required=True)
    p.add_argument("--depth")
    p.add_argument("--flare")
    p.add_argument("--jobs", type=_positive_int, help="with --sweep only (default 1)")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("augment", help="emit n augmented variants + coefficients")
    p.add_argument("--input", required=True)
    p.add_argument("--augment-config")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bench", help="execute a benchmark manifest")
    p.add_argument("--manifest", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--raw", help="single fixture used for every entry")
    source.add_argument("--input-dir", help="directory of <image_id>.pgm containers")
    p.add_argument("--out", required=True)
    p.add_argument("--depth")
    p.add_argument("--flare")
    p.add_argument("--jobs", type=_positive_int, default=1)
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
    # an option that the mode would ignore exits 2 before any file is touched
    if args.command == "develop" and args.gamma is not None and not args.display8:
        parser.error("argument --gamma: applies only with --display8")
    if args.command == "corrupt" and args.spec and args.seed is not None:
        parser.error("argument --seed: not allowed with --spec, whose file holds the seed")
    if args.command == "corrupt" and args.jobs is not None and not args.sweep:
        parser.error("argument --jobs: applies only with --sweep")
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
