"""Bit-exact file formats: a 16-bit PGM RAW container with a JSON sidecar,
PNM images, and strict JSON/CSV schemas for parameters, corruption specs,
augmentation/fit configs, manifests, and evaluation records.

Every PNM file goes through one codec. _read_pnm checks the header (magic,
width, height, maxval; '#' comments allowed), _pnm_codes decodes the payload
((H, W) for P5, (H, W, 3) for P6; uint8 for maxval 255, big-endian uint16 for
65535), _pnm_encode quantizes values into those codes a chunk of rows at a
time, and _write_pnm writes codes back. Each image reader and writer only
names the magics and maxvals it accepts.

Every JSON document carries schema_version: 1, except that an eval-records
file may also be a bare array of records; unknown fields are rejected.
Wherever a float meets an integer code the rounding is half away from zero.

Each config dataclass defines its file's fields: IspParams, AugmentConfig
(with TruncatedNormal), FitConfig and EvalRecord (a records row). _from_json
and _to_json read and write exactly those fields, and __post_init__ makes
every type and value check. Spec, manifest, NILUT and sidecar files demand
more than their dataclasses (a seed field and E_RANGE checks on params;
activation and residual; E_SIDECAR_* codes), so they keep their own readers.

A manifest image_id names files, `<id>.pgm` under `bench --input-dir` and
`<id>__<kind>__<seed>.ppm` under `--out`, and starts a line
`<id>,<kind>,<seed>,<sha256>` of hashes.txt. So an id that is empty, `.`
or `..`, that holds `/`, `\\` or `,`, or that is not `str.isprintable()`
(a NUL, a newline or another control character) is E_SCHEMA_VALUE
(`check_image_id`, for manifests and for the stem `corrupt --sweep` takes).

Error codes, one per violation class (the CLI exits 4 on every one):
  E_PGM_MAGIC       a PNM file without the expected magic
  E_PGM_MAXVAL      a PNM maxval the reader does not accept
  E_PGM_DIMS        a width or height that is not an integer >= 1 (even for RAW)
  E_PGM_PAYLOAD     a truncated header, or a payload of the wrong size
  E_SIDECAR_FIELD   a missing sidecar, or a missing or unknown sidecar field
  E_SIDECAR_VALUE   a sidecar field of the wrong type or value
  E_CODE_RANGE      a RAW code above 2^bit_depth - 1
  E_JSON_PARSE      a JSON file that is not UTF-8 or does not parse
  E_SCHEMA_VERSION  a schema_version other than the integer 1
  E_SCHEMA_FIELD    not a JSON object, or a missing or unknown field
  E_SCHEMA_VALUE    a field of the wrong type or value
  E_RANGE           a corruption parameter override outside its range
  E_CSV_HEADER      an eval-record CSV without the method,condition,score header
  E_CSV_VALUE       an eval-record CSV row that is malformed or out of range
"""

import csv
import dataclasses
import json
import math
import re
from collections import namedtuple
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, is_int
from .raw import (BayerImage, CfaPattern, GrayImage, LinearRgbImage,
                  normalize_raw)
from .isp import (IspParams, NILUT_LAYER_DIMS, NilutWeights, encode_display)
from .corrupt import REGISTRY, CorruptionSpec, DepthMap
from .augment import AugmentConfig, TruncatedNormal
from .fit import FitConfig
from .metrics import EvalRecord, RobustnessReport, normalize_score
from .rng import check_seed

SCHEMA_VERSION = 1

E_PGM_MAGIC = "E_PGM_MAGIC"
E_PGM_MAXVAL = "E_PGM_MAXVAL"
E_PGM_DIMS = "E_PGM_DIMS"
E_PGM_PAYLOAD = "E_PGM_PAYLOAD"
E_SIDECAR_FIELD = "E_SIDECAR_FIELD"
E_SIDECAR_VALUE = "E_SIDECAR_VALUE"
E_CODE_RANGE = "E_CODE_RANGE"
E_JSON_PARSE = "E_JSON_PARSE"
E_SCHEMA_VERSION = "E_SCHEMA_VERSION"
E_SCHEMA_FIELD = "E_SCHEMA_FIELD"
E_SCHEMA_VALUE = "E_SCHEMA_VALUE"
E_RANGE = "E_RANGE"
E_CSV_HEADER = "E_CSV_HEADER"
E_CSV_VALUE = "E_CSV_VALUE"


@contextmanager
def _as_format_error(ctx: str, code: str = E_SCHEMA_VALUE, errors=ParameterError):
    """An error of `errors` raised in the block, as FormatError `code` under
    ctx."""
    try:
        yield
    except errors as e:
        raise FormatError(code, f"{ctx}: {e}")


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """floor(values + 0.5), in place: values are >= 0 everywhere we quantize."""
    values += 0.5
    return np.floor(values, out=values)


def _quantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Codes round_half_away(clip(values, 0, 1) * scale), as floats, computed
    in one float temporary the size of `values` (`_pnm_encode` passes one
    chunk of rows at a time)."""
    codes = np.clip(values, 0.0, 1.0)
    codes *= scale
    return _round_half_away(codes)


# ---------------------------------------------------------------- PNM layer

# whitespace and '#' comments, then a whole token (it never splits in two)
_PNM_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)(?!\S)" * 3)
_PNM_SAMPLE = {255: np.dtype(np.uint8), 65535: np.dtype(">u2")}
_PNM_MAXVAL = {sample: maxval for maxval, sample in _PNM_SAMPLE.items()}
# Pixels per chunk of `_pnm_encode`: a 256^2 image is one chunk.
ENCODE_CHUNK_PIXELS = 2**16
_PnmHeader = namedtuple("_PnmHeader", "magic width height maxval payload")


def _read_pnm(path, magics, maxvals) -> _PnmHeader:
    """The checked header of a PNM file (magic in `magics`, width and height
    >= 1, maxval in `maxvals`) and the payload after the byte that ends it."""
    raw = Path(path).read_bytes()
    magic = raw[:2].decode("latin-1")
    if magic not in magics:
        raise FormatError(E_PGM_MAGIC, f"{path}: expected a {'/'.join(magics)} file")
    header = _PNM_HEADER.match(raw, 2)
    if header is None:
        raise FormatError(E_PGM_PAYLOAD, f"{path}: truncated header")
    try:
        width, height, maxval = (int(token) for token in header.groups())
    except ValueError:
        raise FormatError(E_PGM_DIMS, f"{path}: non-numeric header fields")
    if width < 1 or height < 1:
        raise FormatError(E_PGM_DIMS, f"{path}: width and height must be >= 1")
    if maxval not in maxvals:
        raise FormatError(E_PGM_MAXVAL, f"{path}: maxval {maxval} not in {maxvals}")
    return _PnmHeader(magic, width, height, maxval,
                      memoryview(raw)[header.end() + 1:])


def _pnm_codes(path, header: _PnmHeader) -> np.ndarray:
    """The payload as codes: (H, W) for P5, (H, W, 3) for P6; uint8 for
    maxval 255, big-endian uint16 for 65535."""
    shape = (header.height, header.width) + ((3,) if header.magic == "P6" else ())
    sample = _PNM_SAMPLE[header.maxval]
    size = math.prod(shape) * sample.itemsize  # a Python int never overflows
    if len(header.payload) != size:
        raise FormatError(E_PGM_PAYLOAD, f"{path}: payload holds "
                          f"{len(header.payload)} bytes, expected {size}")
    return np.frombuffer(header.payload, sample).reshape(shape)


def _pnm_encode(values: np.ndarray, maxval: int, encode) -> np.ndarray:
    """Codes of `maxval`'s sample type, encode(rows) for chunks of rows of
    `values` holding about ENCODE_CHUNK_PIXELS pixels each, written into
    one preallocated array. `encode` works on each value alone, so the
    codes are those of the whole frame; only one chunk's float temporary
    is alive at a time."""
    codes = np.empty(values.shape, _PNM_SAMPLE[maxval])
    rows = max(ENCODE_CHUNK_PIXELS // values.shape[1], 1)
    for start in range(0, len(values), rows):
        codes[start:start + rows] = encode(values[start:start + rows])
    return codes


def _write_pnm(path, codes: np.ndarray) -> None:
    """(H, W) codes as P5, (H, W, 3) as P6, in their PNM sample type
    (`_PNM_SAMPLE`), which names the maxval."""
    magic = "P5" if codes.ndim == 2 else "P6"
    height, width = codes.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{width} {height}\n{_PNM_MAXVAL[codes.dtype]}\n".encode())
        f.write(codes)


_SIDECAR_FIELDS = {"schema_version", "cfa", "bit_depth", "black_level",
                   "white_level", "sensor_name"}


def read_raw(pgm_path) -> BayerImage:
    """Load and normalize a RAW container: P5 maxval 65535 + `<stem>.json`."""
    sidecar_path = Path(pgm_path).with_suffix(".json")
    header = _read_pnm(pgm_path, ("P5",), (65535,))
    if header.width % 2 or header.height % 2:  # before the payload size
        raise FormatError(E_PGM_DIMS, f"{pgm_path}: dimensions must be even")
    codes = _pnm_codes(pgm_path, header)
    try:
        sidecar = _load_json(sidecar_path)
    except FileNotFoundError:
        raise FormatError(E_SIDECAR_FIELD, f"{sidecar_path}: sidecar missing")
    _check_schema(sidecar, _SIDECAR_FIELDS, set(), str(sidecar_path),
                  field_code=E_SIDECAR_FIELD)
    with _as_format_error(f"{sidecar_path}: cfa", E_SIDECAR_VALUE, ValueError):
        cfa = CfaPattern(sidecar["cfa"])
    bit_depth = sidecar["bit_depth"]
    black, white = sidecar["black_level"], sidecar["white_level"]
    if not (is_int(bit_depth) and 8 <= bit_depth <= 16):
        raise FormatError(E_SIDECAR_VALUE, f"{sidecar_path}: bit_depth out of [8,16]")
    if not (is_int(black) and is_int(white) and 0 <= black < white <= 2**bit_depth - 1):
        raise FormatError(E_SIDECAR_VALUE,
                          f"{sidecar_path}: need 0 <= black < white <= 2^bits - 1")
    if not isinstance(sidecar["sensor_name"], str):
        raise FormatError(E_SIDECAR_VALUE, f"{sidecar_path}: sensor_name not a string")
    if codes.max() > 2**bit_depth - 1:
        raise FormatError(E_CODE_RANGE,
                          f"{pgm_path}: codes exceed 2^bit_depth - 1")
    return normalize_raw(codes, black, white, bit_depth, cfa)


def write_raw(bayer: BayerImage, pgm_path, sensor_name: str = "unknown") -> None:
    """Denormalize to integer codes (half away from zero); write the pair."""
    span = bayer.white_level - bayer.black_level
    _write_pnm(pgm_path, _pnm_encode(
        bayer.data, 65535,
        lambda rows: _round_half_away(bayer.black_level + rows * span)))
    write_json({
        "schema_version": SCHEMA_VERSION,
        "cfa": bayer.cfa.value,
        "bit_depth": bayer.bit_depth,
        "black_level": bayer.black_level,
        "white_level": bayer.white_level,
        "sensor_name": sensor_name,
    }, Path(pgm_path).with_suffix(".json"))


def write_rgb(img: LinearRgbImage, path, mode: str = "linear16_ppm",
              gamma: float = 2.2) -> None:
    """linear16_ppm: P6/65535 of clamped linear values (`_quantize`).
    display8_ppm: P6/255 after gamma encoding (`encode_display`).
    Either quantizes a chunk of rows at a time into the file's sample type
    (`_pnm_encode`), so the codes are those of the whole frame."""
    if mode == "linear16_ppm":
        _write_pnm(path, _pnm_encode(img.data, 65535,
                                     partial(_quantize, scale=65535.0)))
    elif mode == "display8_ppm":
        _write_pnm(path, _pnm_encode(
            img.data, 255,
            lambda rows: encode_display(LinearRgbImage(rows), gamma=gamma)))
    else:
        raise ParameterError(f"unknown rgb mode {mode!r}")


def read_rgb(path) -> LinearRgbImage:
    """Read a linear16 P6 back into a linear image."""
    return LinearRgbImage(_pnm_codes(path, _read_pnm(path, ("P6",), (65535,)))
                          / 65535.0)


def write_gray8(gray: GrayImage, path) -> None:
    _write_pnm(path, _pnm_encode(gray.data, 255, partial(_quantize, scale=255.0)))


def read_depth(path):
    """Relative depth from a bare P5 (maxval 255 or 65535), scaled to [0, 1]."""
    header = _read_pnm(path, ("P5",), (255, 65535))
    return DepthMap(_pnm_codes(path, header) / header.maxval)


def read_asset(path) -> np.ndarray:
    """Additive flare layer (the --flare of `corrupt` and `bench`) from P5 or
    P6, scaled to [0, 1]."""
    header = _read_pnm(path, ("P5", "P6"), (255, 65535))
    return _pnm_codes(path, header) / header.maxval


# ---------------------------------------------------------------- JSON layer

def write_json(obj, path) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    with _as_format_error(path, E_JSON_PARSE, ValueError):  # not UTF-8, or not JSON
        return json.loads(Path(path).read_bytes())


def _check_schema(obj, required: set, optional: set, ctx: str,
                  field_code: str = E_SCHEMA_FIELD):
    if not isinstance(obj, dict):
        raise FormatError(field_code, f"{ctx}: expected a JSON object")
    missing = required - set(obj)
    if missing:
        raise FormatError(field_code, f"{ctx}: missing {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise FormatError(field_code, f"{ctx}: unknown fields {sorted(unknown)}")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if not is_int(version) or version != SCHEMA_VERSION:
        raise FormatError(E_SCHEMA_VERSION,
                          f"{ctx}: unsupported schema_version {version!r}")


def _from_json(cls, obj, ctx: str, convert=None, versioned: bool = True):
    """Config dataclass `cls` from a JSON object: a field without a default
    is required; `convert` maps a field to fn(value, ctx) where the JSON and
    Python shapes differ."""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    _check_schema(obj, required | ({"schema_version"} if versioned else set()),
                  names - required, ctx)
    convert = convert or {}
    with _as_format_error(ctx):
        kwargs = {name: convert[name](obj[name], f"{ctx}: {name}")
                  if name in convert else obj[name] for name in names & set(obj)}
        return cls(**kwargs)


def _to_json(value, **extra):
    """The JSON form of a config: a dataclass is an object of its fields plus
    `extra` (a NILUT is its layers as {weights, bias} objects beside its fixed
    activation and residual keys), and tuples, arrays and numpy scalars are
    lists and plain numbers."""
    if isinstance(value, NilutWeights):
        value = {"activation": "tanh", "residual": True,
                 "layers": [{"weights": w, "bias": b} for w, b in value.layers]}
    elif dataclasses.is_dataclass(value):
        value = {**{f.name: getattr(value, f.name)
                    for f in dataclasses.fields(value)}, **extra}
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _tuples(value, ctx):  # anything but a list is left for cls to reject
    return tuple(_tuples(v, ctx) for v in value) if isinstance(value, list) else value


def _as_matrix(value, shape, ctx):
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape
            or not np.all(np.isfinite(arr))):
        raise FormatError(E_SCHEMA_VALUE,
                          f"{ctx}: expected finite numbers of shape {shape}")
    return arr.astype(np.float64)


def nilut_from_json(obj, ctx: str) -> NilutWeights:
    _check_schema(obj, {"activation", "residual", "layers"}, set(), ctx)
    dims = NILUT_LAYER_DIMS
    if not isinstance(obj["layers"], list) or len(obj["layers"]) != len(dims) - 1:
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: expected {len(dims) - 1} layers")
    layers = []
    for i, layer in enumerate(obj["layers"]):
        _check_schema(layer, {"weights", "bias"}, set(), f"{ctx}.layers[{i}]")
        w = _as_matrix(layer["weights"], (dims[i], dims[i + 1]),
                       f"{ctx}.layers[{i}].weights")
        b = _as_matrix(layer["bias"], (dims[i + 1],), f"{ctx}.layers[{i}].bias")
        layers.append((w, b))
    if obj["activation"] != "tanh" or obj["residual"] is not True:
        raise FormatError(E_SCHEMA_VALUE,
                          f"{ctx}: activation must be \"tanh\" and residual true")
    return NilutWeights(layers=tuple(layers))


def write_isp_params(params: IspParams, path) -> None:
    write_json(_to_json(params, schema_version=SCHEMA_VERSION), path)


def read_isp_params(path) -> IspParams:
    return _from_json(IspParams, _load_json(path), str(path), {
        "ccm": lambda v, ctx: _as_matrix(v, (3, 3), ctx),
        "lut": lambda v, ctx: (NilutWeights.identity() if v is None
                               else nilut_from_json(v, ctx)),
    })


def validate_spec_params(kind: str, params, ctx: str = "spec") -> None:
    """Type- and range-check parameter overrides against the kind's
    registry entry: a type problem is E_SCHEMA_VALUE, a range one E_RANGE."""
    if not isinstance(params, dict):
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: params must be an object")
    table = {param.name: param for param in REGISTRY[kind].params}
    for name, value in params.items():
        if name not in table:
            raise FormatError(E_SCHEMA_FIELD,
                              f"{ctx}: unknown parameter {name!r} for {kind}")
        problem = table[name].problem(value)
        if problem is not None:
            what, reason = problem
            raise FormatError(E_RANGE if what == "range" else E_SCHEMA_VALUE,
                              f"{ctx}: {kind}.{reason}")


def write_corruption_spec(spec: CorruptionSpec, path) -> None:
    write_json(_to_json(spec, schema_version=SCHEMA_VERSION), path)


def _spec_from_json(obj, ctx: str) -> CorruptionSpec:
    """The kind, seed and params of a spec file or manifest entry."""
    with _as_format_error(ctx):
        spec = CorruptionSpec(obj["kind"], obj["seed"], obj.get("params", {}))
    validate_spec_params(spec.kind, spec.params, ctx=ctx)
    return spec


def read_corruption_spec(path) -> CorruptionSpec:
    obj = _load_json(path)
    _check_schema(obj, {"schema_version", "kind", "seed"}, {"params"}, str(path))
    return _spec_from_json(obj, str(path))


def write_augment_config(config: AugmentConfig, path) -> None:
    write_json(_to_json(config, schema_version=SCHEMA_VERSION), path)


def read_augment_config(path) -> AugmentConfig:
    component = partial(_from_json, TruncatedNormal, versioned=False)
    return _from_json(AugmentConfig, _load_json(path), str(path), {
        "brightness_dark": component, "brightness_bright": component,
        "kernel_sizes": _tuples})


def write_fit_config(config: FitConfig, path) -> None:
    write_json(_to_json(config, schema_version=SCHEMA_VERSION), path)


def read_fit_config(path) -> FitConfig:
    return _from_json(FitConfig, _load_json(path), str(path), {"bounds": _tuples})


def write_bench_manifest(master_seed: int, entries, path) -> None:
    write_json({
        "schema_version": SCHEMA_VERSION,
        "master_seed": master_seed,
        "entries": [_to_json(spec, image_id=image_id) for image_id, spec in entries],
    }, path)


def check_image_id(image_id, ctx: str) -> None:
    """E_SCHEMA_VALUE unless image_id is a valid manifest id (module
    docstring)."""
    if (not isinstance(image_id, str) or image_id in ("", ".", "..")
            or any(c in image_id for c in "/\\,") or not image_id.isprintable()):
        raise FormatError(E_SCHEMA_VALUE,
                          f"{ctx}: image_id {image_id!r} must be a printable string "
                          "other than '', '.' and '..' without '/', '\\' or ','")


def read_bench_manifest(path):
    """Returns (master_seed, [(image_id, CorruptionSpec), ...]).

    master_seed records the seed from which `corrupt --sweep` derived each
    entry's seed; it must be a valid seed, but `bench` replays each entry
    from its own seed alone. image_id must be a valid manifest id (module
    docstring)."""
    obj = _load_json(path)
    _check_schema(obj, {"schema_version", "master_seed", "entries"}, set(),
                  str(path))
    with _as_format_error(f"{path}: master_seed"):
        master_seed = check_seed(obj["master_seed"])
    if not isinstance(obj["entries"], list):
        raise FormatError(E_SCHEMA_VALUE, f"{path}: entries must be a list")
    entries, seen = [], set()
    for i, e in enumerate(obj["entries"]):
        ctx = f"{path}: entries[{i}]"
        _check_schema(e, {"image_id", "kind", "seed"}, {"params"}, ctx)
        image_id = e["image_id"]
        check_image_id(image_id, ctx)
        spec = _spec_from_json(e, ctx)
        key = (image_id, spec.kind, spec.seed)
        if key in seen:
            raise FormatError(E_SCHEMA_VALUE,
                              f"{ctx}: duplicate image id for (kind, seed) {key}")
        seen.add(key)
        entries.append((image_id, spec))
    return master_seed, entries


# ----------------------------------------------------------- records layer

def read_eval_records(path):
    """CSV with header method,condition,score, or the JSON equivalent
    (either {"schema_version": 1, "records": [...]} or a bare array)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        rows = _load_json(path)
        if isinstance(rows, dict):
            _check_schema(rows, {"schema_version", "records"}, set(), str(path))
            rows = rows["records"]
        if not isinstance(rows, list):
            raise FormatError(E_SCHEMA_VALUE, f"{path}: records must be a list")
        score = {"score": lambda v, ctx: normalize_score(v)}
        return [_from_json(EvalRecord, row, f"{path}: records[{i}]", score,
                           versioned=False) for i, row in enumerate(rows)]
    with open(path, newline="") as f:
        with _as_format_error(path, E_CSV_VALUE, (UnicodeDecodeError, csv.Error)):
            rows = list(csv.reader(f))
    if rows[:1] != [["method", "condition", "score"]]:
        raise FormatError(E_CSV_HEADER,
                          f"{path}: expected header method,condition,score")
    records = []
    for i, row in enumerate(rows[1:]):
        if not row:
            continue
        if len(row) != 3:
            raise FormatError(E_CSV_VALUE, f"{path}: row {i + 2} malformed")
        # a non-numeric score, or a ParameterError of the record
        with _as_format_error(f"{path}: row {i + 2}", E_CSV_VALUE, ValueError):
            records.append(EvalRecord(row[0], row[1], normalize_score(float(row[2]))))
    return records


def report_to_json(report: RobustnessReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "reference": report.reference,
        "methods": list(report.methods),
        "conditions": list(report.conditions),
        "cd": {m: {c: report.cd[(m, c)] for c in report.conditions}
               for m in report.methods},
        "rcd": {m: {c: report.rcd[(m, c)] for c in report.conditions}
                for m in report.methods},
        "truncated_mean_rcd": dict(report.truncated_mean_rcd),
    }


def write_fit_trace(trace, path) -> None:
    """trace.csv from a fit's (vector, loss) pairs: eval_index is the
    pair's position in the list."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        dims = len(trace[0][0]) if trace else 0
        writer.writerow(["eval_index", "loss"] + [f"p{i:02d}" for i in range(dims)])
        for idx, (vec, loss) in enumerate(trace):
            writer.writerow([idx, repr(loss)] + [repr(float(v)) for v in vec])
