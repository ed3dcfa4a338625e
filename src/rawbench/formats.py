"""Bit-exact file formats: 16-bit PGM RAW container with a JSON sidecar,
PPM image writers, and strict JSON/CSV schemas for parameters, corruption
specs, augmentation/fit configs, manifests, and evaluation records.

Every JSON document carries schema_version: 1; unknown fields are rejected.
Wherever a float meets an integer code the rounding is half away from zero.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, is_int
from .raw import (BayerImage, CfaPattern, GrayImage, LinearRgbImage,
                  normalize_raw)
from .isp import (IspParams, NILUT_LAYER_DIMS, NilutWeights, encode_display)
from .corrupt import KINDS, REGISTRY, CorruptionSpec, DepthMap
from .augment import AugmentConfig, TruncatedNormal
from .fit import FitConfig, FitTrace
from .metrics import EvalRecord, RobustnessReport, normalize_score

SCHEMA_VERSION = 1

# error codes, one per violation class
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


def _round_half_away(values: np.ndarray) -> np.ndarray:
    return np.floor(values + 0.5)  # values are >= 0 everywhere we quantize


# ---------------------------------------------------------------- PNM layer

def _read_pnm(path, magic: str):
    raw = Path(path).read_bytes()
    if not raw.startswith(magic.encode()):
        raise FormatError(E_PGM_MAGIC, f"{path}: expected {magic} file")
    # header = magic + 3 decimal tokens, '#' comments allowed
    tokens, pos = [], len(magic)
    while len(tokens) < 3:
        if pos >= len(raw):
            raise FormatError(E_PGM_PAYLOAD, f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise FormatError(E_PGM_PAYLOAD, f"{path}: truncated header")
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(E_PGM_DIMS, f"{path}: non-numeric header fields")
    pos += 1  # single whitespace byte after maxval
    return width, height, maxval, raw[pos:]


def _payload_u16(path, payload: bytes, count: int) -> np.ndarray:
    if len(payload) != 2 * count:
        raise FormatError(
            E_PGM_PAYLOAD,
            f"{path}: payload holds {len(payload)} bytes, expected {2 * count}",
        )
    return np.frombuffer(payload, dtype=">u2").astype(np.int64)


def _sidecar_path(pgm_path) -> Path:
    return Path(pgm_path).with_suffix(".json")


_SIDECAR_FIELDS = ("schema_version", "cfa", "bit_depth", "black_level",
                   "white_level", "sensor_name")


def read_raw(pgm_path, sidecar_path=None) -> BayerImage:
    """Load and normalize a RAW container (P5 maxval 65535 + JSON sidecar)."""
    sidecar_path = Path(sidecar_path) if sidecar_path else _sidecar_path(pgm_path)
    width, height, maxval, payload = _read_pnm(pgm_path, "P5")
    if maxval != 65535:
        raise FormatError(E_PGM_MAXVAL, f"{pgm_path}: maxval {maxval} != 65535")
    if width % 2 or height % 2 or width < 2 or height < 2:
        raise FormatError(E_PGM_DIMS, f"{pgm_path}: dimensions must be even")
    codes = _payload_u16(pgm_path, payload, width * height).reshape(height, width)
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except FileNotFoundError:
        raise FormatError(E_SIDECAR_FIELD, f"{sidecar_path}: sidecar missing")
    except json.JSONDecodeError as e:
        raise FormatError(E_JSON_PARSE, f"{sidecar_path}: {e}")
    for name in _SIDECAR_FIELDS:
        if name not in sidecar:
            raise FormatError(E_SIDECAR_FIELD, f"{sidecar_path}: missing {name!r}")
    unknown = set(sidecar) - set(_SIDECAR_FIELDS)
    if unknown:
        raise FormatError(E_SIDECAR_FIELD,
                          f"{sidecar_path}: unknown fields {sorted(unknown)}")
    if sidecar["schema_version"] != SCHEMA_VERSION:
        raise FormatError(E_SCHEMA_VERSION, f"{sidecar_path}: unsupported version")
    try:
        cfa = CfaPattern(sidecar["cfa"])
    except ValueError:
        raise FormatError(E_SIDECAR_VALUE,
                          f"{sidecar_path}: bad cfa {sidecar['cfa']!r}")
    bit_depth = sidecar["bit_depth"]
    black, white = sidecar["black_level"], sidecar["white_level"]
    if not (isinstance(bit_depth, int) and 8 <= bit_depth <= 16):
        raise FormatError(E_SIDECAR_VALUE, f"{sidecar_path}: bit_depth out of [8,16]")
    if not (isinstance(black, int) and isinstance(white, int)
            and black < white <= 2**bit_depth - 1):
        raise FormatError(E_SIDECAR_VALUE,
                          f"{sidecar_path}: need black < white <= 2^bits - 1")
    if codes.max() > 2**bit_depth - 1:
        raise FormatError(E_CODE_RANGE,
                          f"{pgm_path}: codes exceed 2^bit_depth - 1")
    return normalize_raw(codes, black, white, bit_depth, cfa)


def write_raw(bayer: BayerImage, pgm_path, sidecar_path=None,
              sensor_name: str = "unknown") -> None:
    """Denormalize to integer codes (half away from zero) and write the pair."""
    sidecar_path = Path(sidecar_path) if sidecar_path else _sidecar_path(pgm_path)
    span = bayer.white_level - bayer.black_level
    codes = _round_half_away(bayer.black_level + bayer.data * span)
    codes = codes.astype(np.uint16)
    header = f"P5\n{bayer.width} {bayer.height}\n65535\n".encode()
    Path(pgm_path).write_bytes(header + codes.astype(">u2").tobytes())
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "cfa": bayer.cfa.value,
        "bit_depth": bayer.bit_depth,
        "black_level": bayer.black_level,
        "white_level": bayer.white_level,
        "sensor_name": sensor_name,
    }
    write_json(sidecar, sidecar_path)


def write_rgb(img: LinearRgbImage, path, mode: str = "linear16_ppm",
              gamma: float = 2.2) -> None:
    """linear16_ppm: P6/65535 of clamped linear values.
    display8_ppm: P6/255 after gamma encoding."""
    if mode == "linear16_ppm":
        codes = _round_half_away(np.clip(img.data, 0.0, 1.0) * 65535.0)
        payload = codes.astype(">u2").tobytes()
        header = f"P6\n{img.width} {img.height}\n65535\n".encode()
    elif mode == "display8_ppm":
        codes = encode_display(img, gamma=gamma)
        payload = codes.tobytes()
        header = f"P6\n{img.width} {img.height}\n255\n".encode()
    else:
        raise ParameterError(f"unknown rgb mode {mode!r}")
    Path(path).write_bytes(header + payload)


def read_rgb(path) -> LinearRgbImage:
    """Read a linear16 P6 back into a linear image."""
    width, height, maxval, payload = _read_pnm(path, "P6")
    if maxval != 65535:
        raise FormatError(E_PGM_MAXVAL, f"{path}: maxval {maxval} != 65535")
    codes = _payload_u16(path, payload, width * height * 3)
    data = codes.reshape(height, width, 3).astype(np.float64) / 65535.0
    return LinearRgbImage(data)


def write_gray8(gray: GrayImage, path) -> None:
    codes = _round_half_away(np.clip(gray.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = gray.data.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + codes.tobytes())


def _read_pnm_any_depth(path, magic, planes):
    width, height, maxval, payload = _read_pnm(path, magic)
    count = width * height * planes
    if maxval == 65535:
        codes = _payload_u16(path, payload, count)
    elif maxval == 255:
        if len(payload) != count:
            raise FormatError(E_PGM_PAYLOAD, f"{path}: bad payload size")
        codes = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    else:
        raise FormatError(E_PGM_MAXVAL, f"{path}: maxval must be 255 or 65535")
    shape = (height, width) if planes == 1 else (height, width, planes)
    return codes.reshape(shape).astype(np.float64) / maxval


def read_depth(path):
    """Relative depth from a bare P5 (maxval 255 or 65535), scaled to [0, 1]."""
    return DepthMap(_read_pnm_any_depth(path, "P5", 1))


def read_asset(path) -> np.ndarray:
    """Additive overlay layer (flare/snow) from P5 or P6, scaled to [0, 1]."""
    magic = Path(path).read_bytes()[:2].decode(errors="replace")
    if magic == "P6":
        return _read_pnm_any_depth(path, "P6", 3)
    return _read_pnm_any_depth(path, "P5", 1)


# ---------------------------------------------------------------- JSON layer

def write_json(obj, path) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(E_JSON_PARSE, f"{path}: {e}")


def _check_schema(obj, required: set, optional: set, ctx: str):
    if not isinstance(obj, dict):
        raise FormatError(E_SCHEMA_FIELD, f"{ctx}: expected a JSON object")
    missing = required - set(obj)
    if missing:
        raise FormatError(E_SCHEMA_FIELD, f"{ctx}: missing {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise FormatError(E_SCHEMA_FIELD, f"{ctx}: unknown fields {sorted(unknown)}")
    if "schema_version" in required and obj["schema_version"] != SCHEMA_VERSION:
        raise FormatError(E_SCHEMA_VERSION, f"{ctx}: unsupported schema_version")


def _as_matrix(value, shape, ctx):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: expected finite shape {shape}")
    return arr


def nilut_to_json(weights: NilutWeights) -> dict:
    return {
        "activation": weights.activation,
        "residual": weights.residual,
        "layers": [{"weights": w.tolist(), "bias": b.tolist()}
                   for w, b in weights.layers],
    }


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
    try:
        return NilutWeights(layers=tuple(layers), activation=obj["activation"],
                            residual=obj["residual"])
    except ParameterError as e:
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: {e}")


_PARAM_FIELDS = {"schema_version", "g", "r1", "r2", "theta", "sigma", "rho",
                 "ccm", "lut"}


def write_isp_params(params: IspParams, path) -> None:
    write_json({
        "schema_version": SCHEMA_VERSION,
        "g": params.g, "r1": params.r1, "r2": params.r2,
        "theta": params.theta, "sigma": params.sigma, "rho": params.rho,
        "ccm": params.ccm.tolist(),
        "lut": nilut_to_json(params.lut),
    }, path)


def read_isp_params(path) -> IspParams:
    obj = _load_json(path)
    _check_schema(obj, _PARAM_FIELDS - {"lut"}, {"lut"}, str(path))
    ccm = _as_matrix(obj["ccm"], (3, 3), f"{path}: ccm")
    lut = (NilutWeights.identity() if obj.get("lut") is None
           else nilut_from_json(obj["lut"], f"{path}: lut"))
    try:
        return IspParams(g=float(obj["g"]), r1=float(obj["r1"]),
                         r2=float(obj["r2"]), theta=float(obj["theta"]),
                         sigma=float(obj["sigma"]), rho=float(obj["rho"]),
                         ccm=ccm, lut=lut)
    except ParameterError as e:
        raise FormatError(E_SCHEMA_VALUE, f"{path}: {e}")


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
    write_json({"schema_version": SCHEMA_VERSION, "kind": spec.kind,
                "seed": spec.seed, "params": dict(spec.params)}, path)


def _spec_from_json(obj, ctx: str) -> CorruptionSpec:
    """The kind, seed and params of a spec file or manifest entry."""
    kind = obj["kind"]
    if kind not in KINDS:
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: unknown kind {kind!r}")
    if not is_int(obj["seed"]):
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: seed must be an integer")
    params = obj.get("params", {})
    validate_spec_params(kind, params, ctx=ctx)
    return CorruptionSpec(kind=kind, seed=obj["seed"], params=params)


def read_corruption_spec(path) -> CorruptionSpec:
    obj = _load_json(path)
    _check_schema(obj, {"schema_version", "kind", "seed"}, {"params"}, str(path))
    return _spec_from_json(obj, str(path))


_TN_FIELDS = {"mu", "sigma", "lo", "hi"}


def _tn_from_json(obj, ctx):
    _check_schema(obj, _TN_FIELDS, set(), ctx)
    try:
        return TruncatedNormal(obj["mu"], obj["sigma"], obj["lo"], obj["hi"])
    except ParameterError as e:
        raise FormatError(E_SCHEMA_VALUE, f"{ctx}: {e}")


_AUGMENT_FIELDS = {
    "prob_original", "prob_brightness", "prob_chroma", "prob_quality",
    "brightness_dark", "brightness_bright", "brightness_mix",
    "chroma_lo", "chroma_hi", "kernel_sizes",
    "iso_width_lo", "iso_width_hi", "aniso_angle_lo", "aniso_angle_hi",
    "aniso_major_lo", "aniso_major_hi",
    "aniso_minor_frac_lo", "aniso_minor_frac_hi",
    "prob_aniso", "awgn_sigma_max", "blur_before_noise",
}


def write_augment_config(config: AugmentConfig, path) -> None:
    obj = {"schema_version": SCHEMA_VERSION}
    for name in sorted(_AUGMENT_FIELDS):
        value = getattr(config, name)
        if isinstance(value, TruncatedNormal):
            value = {"mu": value.mu, "sigma": value.sigma,
                     "lo": value.lo, "hi": value.hi}
        elif isinstance(value, tuple):
            value = list(value)
        obj[name] = value
    write_json(obj, path)


def read_augment_config(path) -> AugmentConfig:
    obj = _load_json(path)
    _check_schema(obj, {"schema_version"}, _AUGMENT_FIELDS, str(path))
    kwargs = {}
    for name in _AUGMENT_FIELDS & set(obj):
        value = obj[name]
        if name in ("brightness_dark", "brightness_bright"):
            value = _tn_from_json(value, f"{path}: {name}")
        elif name == "kernel_sizes" and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return AugmentConfig(**kwargs)
    except ParameterError as e:
        raise FormatError(E_SCHEMA_VALUE, f"{path}: {e}")


_FIT_FIELDS = {"loss", "optimizer", "budget", "bounds", "population",
               "init_step", "seed", "kernel_size", "fit_lut"}


def write_fit_config(config: FitConfig, path) -> None:
    obj = {"schema_version": SCHEMA_VERSION}
    for name in sorted(_FIT_FIELDS):
        value = getattr(config, name)
        if name == "bounds" and value is not None:
            value = [list(b) for b in value]
        obj[name] = value
    write_json(obj, path)


def read_fit_config(path) -> FitConfig:
    obj = _load_json(path)
    _check_schema(obj, {"schema_version"}, _FIT_FIELDS, str(path))
    kwargs = {name: obj[name] for name in _FIT_FIELDS & set(obj)}
    if kwargs.get("bounds") is not None:
        try:
            kwargs["bounds"] = tuple(tuple(b) for b in kwargs["bounds"])
        except TypeError:
            raise FormatError(E_SCHEMA_VALUE, f"{path}: bounds must be (lo, hi) pairs")
    try:
        config = FitConfig(**kwargs)
        config.resolved_bounds()
    except ParameterError as e:
        raise FormatError(E_SCHEMA_VALUE, f"{path}: {e}")
    return config


_MANIFEST_ENTRY_FIELDS = {"image_id", "kind", "seed"}


def write_bench_manifest(master_seed: int, entries, path) -> None:
    write_json({
        "schema_version": SCHEMA_VERSION,
        "master_seed": master_seed,
        "entries": [
            {"image_id": image_id, "kind": spec.kind, "seed": spec.seed,
             "params": dict(spec.params)}
            for image_id, spec in entries
        ],
    }, path)


def read_bench_manifest(path):
    """Returns (master_seed, [(image_id, CorruptionSpec), ...])."""
    obj = _load_json(path)
    _check_schema(obj, {"schema_version", "master_seed", "entries"}, set(),
                  str(path))
    if not is_int(obj["master_seed"]):
        raise FormatError(E_SCHEMA_VALUE, f"{path}: master_seed must be an integer")
    if not isinstance(obj["entries"], list):
        raise FormatError(E_SCHEMA_VALUE, f"{path}: entries must be a list")
    entries, seen = [], set()
    for i, e in enumerate(obj["entries"]):
        ctx = f"{path}: entries[{i}]"
        _check_schema(e, _MANIFEST_ENTRY_FIELDS, {"params"}, ctx)
        if not isinstance(e["image_id"], str):
            raise FormatError(E_SCHEMA_VALUE, f"{ctx}: image_id must be a string")
        spec = _spec_from_json(e, ctx)
        key = (e["image_id"], spec.kind, spec.seed)
        if key in seen:
            raise FormatError(E_SCHEMA_VALUE,
                              f"{ctx}: duplicate image id for (kind, seed) {key}")
        seen.add(key)
        entries.append((e["image_id"], spec))
    return obj["master_seed"], entries


# ----------------------------------------------------------- records layer

def read_eval_records(path):
    """CSV with header method,condition,score, or the JSON equivalent
    (either {"schema_version": 1, "records": [...]} or a bare array)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        obj = _load_json(path)
        if isinstance(obj, dict):
            _check_schema(obj, {"schema_version", "records"}, set(), str(path))
            rows = obj["records"]
        else:
            rows = obj
        records = []
        for i, row in enumerate(rows):
            _check_schema(row, {"method", "condition", "score"}, set(),
                          f"{path}: records[{i}]")
            records.append(_make_record(row["method"], row["condition"],
                                        row["score"], f"{path}: records[{i}]"))
        return records
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["method", "condition", "score"]:
            raise FormatError(E_CSV_HEADER,
                              f"{path}: expected header method,condition,score")
        records = []
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(E_CSV_VALUE, f"{path}: row {i + 2} malformed")
            try:
                score = float(row[2])
            except ValueError:
                raise FormatError(E_CSV_VALUE,
                                  f"{path}: row {i + 2} score not numeric")
            records.append(_make_record(row[0], row[1], score,
                                        f"{path}: row {i + 2}"))
        return records


def _make_record(method, condition, score, ctx) -> EvalRecord:
    try:
        return EvalRecord(method=method, condition=condition,
                          score=normalize_score(float(score)))
    except ParameterError as e:
        raise FormatError(E_CSV_VALUE, f"{ctx}: {e}")


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


def write_fit_trace(trace: FitTrace, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        dims = len(trace.entries[0][1]) if trace.entries else 0
        writer.writerow(["eval_index", "loss"] + [f"p{i:02d}" for i in range(dims)])
        for idx, vec, loss in trace.entries:
            writer.writerow([idx, repr(loss)] + [repr(float(v)) for v in vec])
