"""File formats through cli.main: a substitution matrix over every field of
every reader's file, one crafted file per E_* code, PNM header cases for
every image reader, writer/reader round trips, pinned JSON and image writer
bytes, and the inputs that used to end in a traceback or run when they
should not."""

import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from rawbench import BayerImage, CfaPattern, GrayImage, cli, formats, isp, visualize_raw
from rawbench import augment as aug
from rawbench import corrupt as cor
from rawbench.fit import (DEFAULT_BOUNDS, FIT_DIMS, LUT_DIMS, FitConfig,
                          vector_to_params)
from rawbench.metrics import EvalRecord
from rawbench.rng import RngStream

from conftest import random_bayer, random_rgb

# --------------------------------------------------------- the valid inputs

RECORDS = [  # reference "1": a string "1" substituted into row 0 changes nothing
    {"method": "1", "condition": "1", "score": 0.9},
    {"method": "1", "condition": "normal", "score": 0.95},
    {"method": "m", "condition": "normal", "score": 0.9},
    {"method": "m", "condition": "1", "score": 0.8},
]


def _write_json(path, obj):
    path.write_text(json.dumps(obj))  # NaN / Infinity as JSON extensions
    return path


def _build(tmp: Path, reader: str):
    """Write valid inputs for `reader`. Returns the cli.main argv (without
    --out) and the files whose fields the matrix substitutes, keyed by
    target: "header" for a PNM header, "" for a whole JSON object, and
    "entries.0" or "records.0" for the first element of that list."""
    raw = tmp / "scene.pgm"
    formats.write_raw(random_bayer(16, 16, seed=12), raw)
    if reader == "read_raw":
        return ["develop", "--raw", str(raw)], {
            "header": raw, "": raw.with_suffix(".json")}
    if reader == "read_rgb":
        rgb = tmp / "scene.ppm"
        formats.write_rgb(random_rgb(16, 16, seed=3), rgb)
        return ["corrupt", "--input", str(rgb), "--kind", "low_light"], {
            "header": rgb}
    if reader in ("read_depth", "read_asset"):
        layer = tmp / "layer.pgm"
        formats.write_gray8(GrayImage(np.full((16, 16), 0.5)), layer)
        option, kind = (("--depth", "fog") if reader == "read_depth"
                        else ("--flare", "flare"))
        return ["corrupt", "--input", str(raw), "--kind", kind, option,
                str(layer)], {"header": layer}
    path = tmp / "input.json"
    if reader == "read_isp_params":
        formats.write_isp_params(isp.IspParams.identity(), path)
        return ["develop", "--raw", str(raw), "--params", str(path)], {"": path}
    if reader == "read_corruption_spec":
        formats.write_corruption_spec(cor.CorruptionSpec("low_light", seed=3), path)
        return ["corrupt", "--input", str(raw), "--spec", str(path)], {"": path}
    if reader == "read_bench_manifest":
        formats.write_bench_manifest(
            5, [("scene", cor.CorruptionSpec("low_light", seed=3))], path)
        return ["bench", "--manifest", str(path), "--raw", str(raw)], {
            "": path, "entries.0": path}
    if reader == "read_augment_config":
        formats.write_augment_config(aug.AugmentConfig(), path)
        return ["augment", "--input", str(raw), "--augment-config", str(path),
                "--n", "16", "--seed", "3"], {"": path}
    if reader == "read_fit_config":
        target = tmp / "target.ppm"
        formats.write_rgb(random_rgb(16, 16, seed=4), target)
        formats.write_fit_config(FitConfig(budget=5, bounds=DEFAULT_BOUNDS), path)
        return ["fit", "--raw", str(raw), "--target", str(target),
                "--fit-config", str(path)], {"": path}
    assert reader == "read_eval_records"
    _write_json(path, {"schema_version": 1, "records": RECORDS})
    return ["report", "--records", str(path), "--reference", "1"], {
        "": path, "records.0": path}


READERS = ("read_raw", "read_rgb", "read_depth", "read_asset",
           "read_isp_params", "read_corruption_spec", "read_bench_manifest",
           "read_augment_config", "read_fit_config", "read_eval_records")


def _object(obj, target):
    """The JSON object a target names inside a parsed file."""
    if target:
        key, index = target.split(".")
        obj = obj[key][int(index)]
    return obj


def _fields(path: Path, target: str) -> dict:
    """Field -> the base value's JSON type ("pnm" for a header token)."""
    if target == "header":
        return {"width": "pnm", "height": "pnm", "maxval": "pnm"}
    obj = _object(json.loads(path.read_text()), target)
    return {name: _json_type(value) for name, value in obj.items()}


def _json_type(value) -> str:
    return {type(None): "null", bool: "boolean", int: "integer",
            float: "number", str: "string", list: "array",
            dict: "object"}[type(value)]


def _substitute(path: Path, target: str, field: str, value) -> None:
    if target == "header":  # the writers emit "P5\n<w> <h>\n<maxval>\n<payload>"
        magic, dims, maxval, payload = path.read_bytes().split(b"\n", 3)
        tokens = {"width": dims.split()[0], "height": dims.split()[1],
                  "maxval": maxval}
        tokens[field] = json.dumps(value).encode()
        path.write_bytes(b"\n".join([magic, tokens["width"] + b" "
                                     + tokens["height"], tokens["maxval"],
                                     payload]))
        return
    obj = json.loads(path.read_text())
    _object(obj, target)[field] = value
    _write_json(path, obj)


def _matrix_rows():
    with tempfile.TemporaryDirectory() as tmp:
        rows = []
        for reader in READERS:
            _, targets = _build(Path(tmp), reader)
            for target, path in targets.items():
                rows += [(reader, target, field, kind)
                         for field, kind in _fields(path, target).items()]
        return rows


MATRIX = _matrix_rows()
VALUES = (None, True, "1", [], {}, math.nan, math.inf, -math.inf, -1, 0.5,
          10**400)  # an integer no float can hold
# The types a field accepts beyond its base value's: an integer is a valid
# number, and these fields also take null.
WIDER = {"number": {"integer"}}
NULLABLE = {("read_isp_params", "lut"), ("read_fit_config", "bounds")}
# An empty record list is a valid file, but the report then has no record
# for the reference method: the metric is undefined (exit 6).
UNDEFINED_METRIC = {("read_eval_records", "records")}


def _accepted_types(reader, field, kind) -> set:
    if kind == "pnm":  # no JSON value is a positive integer token
        return set()
    types = {kind} | WIDER.get(kind, set())
    return types | ({"null"} if (reader, field) in NULLABLE else set())


@pytest.mark.parametrize("reader", READERS)
def test_base_inputs_run(tmp_path, reader):
    argv, _ = _build(tmp_path, reader)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "reader, target, field, kind", MATRIX,
    ids=[f"{r}-{t or 'file'}-{f}" for r, t, f, _ in MATRIX])
def test_substituted_field(tmp_path, capsys, reader, target, field, kind):
    # a value of the wrong JSON type exits 4; any other exits 0 or 4; none
    # may raise
    argv, targets = _build(tmp_path, reader)
    path = targets[target]
    pristine = path.read_bytes()
    accepted = _accepted_types(reader, field, kind)
    wrong = []
    for i, value in enumerate(VALUES):
        _substitute(path, target, field, value)
        code = cli.main(argv + ["--out", str(tmp_path / f"out{i}")])
        path.write_bytes(pristine)
        if _json_type(value) not in accepted:
            allowed = {cli.EXIT_FORMAT}
        elif (reader, field) in UNDEFINED_METRIC:
            allowed = {cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_METRIC}
        else:
            allowed = {cli.EXIT_OK, cli.EXIT_FORMAT}
        if code not in allowed:
            wrong.append((value, code, capsys.readouterr().err))
    assert not wrong


def test_matrix_covers_every_reader_and_field():
    # tooling guard: a new read_* function needs a row, and every field the
    # config dataclasses define is substituted
    readers = {n for n in dir(formats) if n.startswith("read_")}
    assert readers == set(READERS)
    covered = {(r, f) for r, _, f, _ in MATRIX}
    for reader, cls in (("read_isp_params", isp.IspParams),
                        ("read_augment_config", aug.AugmentConfig),
                        ("read_fit_config", FitConfig),
                        ("read_eval_records", EvalRecord)):
        for f in dataclasses.fields(cls):
            assert (reader, f.name) in covered


# ------------------------------------------------ one crafted file per code

def _crafted(tmp: Path, code: str):
    """argv (with --out) of a run that fails with `code`."""
    out = ["--out", str(tmp / "out")]
    raw = tmp / "scene.pgm"
    formats.write_raw(random_bayer(16, 16, seed=12), raw)
    sidecar = json.loads(raw.with_suffix(".json").read_text())
    develop = ["develop", "--raw", str(raw)] + out
    if code == "E_PGM_MAGIC":
        raw.write_bytes(b"P6" + raw.read_bytes()[2:])
    elif code == "E_PGM_MAXVAL":
        raw.write_bytes(raw.read_bytes().replace(b"65535", b"4095", 1))
    elif code == "E_PGM_DIMS":
        raw.write_bytes(raw.read_bytes().replace(b"16 16", b"15 16", 1))
    elif code == "E_PGM_PAYLOAD":
        raw.write_bytes(raw.read_bytes()[:-2])
    elif code == "E_SIDECAR_FIELD":
        del sidecar["cfa"]
    elif code == "E_SIDECAR_VALUE":
        sidecar["cfa"] = "XYZW"
    elif code == "E_CODE_RANGE":
        sidecar["bit_depth"], sidecar["white_level"] = 8, 255
    if code.startswith("E_SIDECAR") or code == "E_CODE_RANGE":
        _write_json(raw.with_suffix(".json"), sidecar)
    if code.startswith(("E_PGM", "E_SIDECAR", "E_CODE")):
        return develop
    path = tmp / "input.json"
    if code == "E_JSON_PARSE":
        path.write_text("{")
        return develop + ["--params", str(path)]
    if code in ("E_SCHEMA_VERSION", "E_SCHEMA_FIELD", "E_SCHEMA_VALUE"):
        obj = {"E_SCHEMA_VERSION": {"schema_version": 2},
               "E_SCHEMA_FIELD": {"budgett": 5},
               "E_SCHEMA_VALUE": {"budget": 0}}[code]
        _write_json(path, {"schema_version": 1, **obj})
        formats.write_rgb(random_rgb(16, 16), tmp / "target.ppm")
        return ["fit", "--raw", str(raw), "--target", str(tmp / "target.ppm"),
                "--fit-config", str(path)] + out
    if code == "E_RANGE":
        _write_json(path, {"schema_version": 1, "kind": "low_light", "seed": 1,
                           "params": {"l": 7.0}})
        return ["corrupt", "--input", str(raw), "--spec", str(path)] + out
    records = tmp / "records.csv"
    records.write_text({"E_CSV_HEADER": "method,score\n",
                        "E_CSV_VALUE": "method,condition,score\na,normal,x\n"}[code])
    return ["report", "--records", str(records), "--reference", "a"] + out


CODES = sorted(n for n in dir(formats) if n.startswith("E_"))


@pytest.mark.parametrize("code", CODES)
def test_crafted_file_raises_its_code(tmp_path, capsys, code):
    # tooling guard: CODES is every E_* constant formats defines, and
    # _crafted has no fallback, so a new code fails here until it has a file
    assert getattr(formats, code) == code
    assert cli.main(_crafted(tmp_path, code)) == cli.EXIT_FORMAT
    assert f"{code}:" in capsys.readouterr().err


# ------------------------------------------- round trips and pinned bytes

def _random_lut(seed):
    rng, dims = RngStream.from_seed(seed), isp.NILUT_LAYER_DIMS
    return isp.NilutWeights(tuple(
        (0.1 * rng.normals(dims[i] * dims[i + 1]).reshape(dims[i], dims[i + 1]),
         0.1 * rng.normals(dims[i + 1])) for i in range(len(dims) - 1)))


def _random_params(seed, lut=None):
    # 15 draws with the fourth dropped: the parameters of the pinned bytes
    draws = 0.5 * RngStream.from_seed(seed).normals(15)
    params = vector_to_params(np.delete(draws, 3))
    return params if lut is None else dataclasses.replace(params, lut=lut)


def _manifest_writer(obj, path):
    formats.write_bench_manifest(*obj, path)


SPEC = cor.CorruptionSpec("fog", seed=7, params={"a": 0.45, "beta": 1})
CUSTOM_BOUNDS = tuple((lo - 0.5, hi + 0.25) for lo, hi in DEFAULT_BOUNDS)
# name -> (writer, reader, object)
WRITTEN = {
    "params_identity": (formats.write_isp_params, formats.read_isp_params,
                        isp.IspParams.identity()),
    "params_random": (formats.write_isp_params, formats.read_isp_params,
                      _random_params(5)),
    "params_fit_lut": (formats.write_isp_params, formats.read_isp_params,
                       vector_to_params(0.3 * RngStream.from_seed(6).normals(
                           FIT_DIMS + LUT_DIMS), fit_lut=True)),
    "params_random_lut": (formats.write_isp_params, formats.read_isp_params,
                          _random_params(7, lut=_random_lut(8))),
    "fit_default": (formats.write_fit_config, formats.read_fit_config,
                    FitConfig()),
    "fit_custom_bounds": (formats.write_fit_config, formats.read_fit_config,
                          FitConfig(loss="l2", optimizer="evolution", budget=5,
                                    bounds=CUSTOM_BOUNDS, seed=9)),
    "augment": (formats.write_augment_config, formats.read_augment_config,
                aug.AugmentConfig(kernel_sizes=(3, 5), chroma_hi=1.2,
                                  brightness_dark=aug.TruncatedNormal(
                                      0.3, 0.1, 0.05, 0.9))),
    "spec": (formats.write_corruption_spec, formats.read_corruption_spec, SPEC),
    "manifest": (_manifest_writer, formats.read_bench_manifest,
                 (11, [("scene", SPEC),
                       ("other", cor.CorruptionSpec("rain", seed=3))])),
}
# SHA-256 of each writer's output, unchanged since the writers became
# formats._to_json, except that the augment config lost its
# "blur_before_noise": true line when quality always blurred first
PINNED = {
    "params_identity":
        "18d8385a95d394de7863bdb09059fc35ff022cdaff10bd0bdf52476fa2a04884",
    "params_random":
        "f4f9e2b1584465c24e7d3b88d58b321339d18ab6d4bca87d5aa9d61a4b5251ea",
    "params_fit_lut":
        "62a0f5acd23236b244ede5c5e298695147d49980d61d366ceda076a5d67d519c",
    "params_random_lut":
        "1b5f1a83a7f6d6a27888d69052faa6660fd4a20f8c8e4123a9789dd0bff00ffb",
    "fit_default":
        "b13f0b0c23b7216d355b695e6969821ac9e54528485105192dac7e969d10d8ec",
    "fit_custom_bounds":
        "fce7bcb9c7bc396938179d75234f763be102add8d53069650d4dea0bbd0bf9e9",
    "augment":
        "7360d1bf9444b36609729d07ddc25cbc26d421841238d182339a6e885543ed32",
    "spec":
        "a359af9e1d785f984419bcc538863599cf02b937b23c38727efa77ef9d9f540d",
    "manifest":
        "7acb6e6a2161aa8d51de9626b4319e50c07e61325b6c7743ba2ce5e0c6e18372",
}


def _equal(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_equal(x, y) for x, y in zip(a, b)))
    return a == b


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_round_trip(tmp_path, name):
    writer, reader, obj = WRITTEN[name]
    writer(obj, tmp_path / "a.json")
    assert _equal(reader(tmp_path / "a.json"), obj)


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_writer_output_is_pinned(tmp_path, name):
    writer, _, obj = WRITTEN[name]
    writer(obj, tmp_path / "a.json")
    assert hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest() \
        == PINNED[name]


def test_numpy_scalars_are_written_as_numbers(tmp_path):
    # FitConfig accepts numpy integers and floats; its file holds plain ones
    config = FitConfig(budget=np.int64(5), init_step=np.float64(0.5))
    formats.write_fit_config(config, tmp_path / "fit.json")
    assert formats.read_fit_config(tmp_path / "fit.json") == config


def test_image_round_trips(tmp_path):
    raw, rgb = tmp_path / "scene.pgm", tmp_path / "scene.ppm"
    formats.write_raw(random_bayer(16, 16, seed=2), raw)
    bayer = formats.read_raw(raw)
    formats.write_raw(bayer, tmp_path / "again.pgm")
    assert (tmp_path / "again.pgm").read_bytes() == raw.read_bytes()
    assert np.array_equal(formats.read_raw(tmp_path / "again.pgm").data,
                          bayer.data)
    formats.write_rgb(random_rgb(8, 6, seed=2), rgb)
    image = formats.read_rgb(rgb)
    formats.write_rgb(image, tmp_path / "again.ppm")
    assert (tmp_path / "again.ppm").read_bytes() == rgb.read_bytes()


def _write_images(tmp: Path) -> None:
    """Every image writer's file, on non-square inputs (the RGB one spans
    [-0.1, 1.1], so the writers clamp)."""
    bayer = random_bayer(12, 16, seed=3)
    rgb = random_rgb(10, 14, seed=7, lo=-0.1, hi=1.1)
    formats.write_raw(bayer, tmp / "raw.pgm")  # and its sidecar raw.json
    formats.write_rgb(rgb, tmp / "linear16.ppm")
    formats.write_rgb(rgb, tmp / "display8.ppm", mode="display8_ppm", gamma=2.4)
    formats.write_gray8(visualize_raw(bayer), tmp / "gray8.pgm")


# SHA-256 of each image writer's file, hashed before the writers shared one
# PNM encoder
IMAGES_PINNED = {
    "raw.pgm":
        "0df71bd3d306c2a8f6917f2190d76aae844e3fa1100dc54e89a9cae6dab2422a",
    "raw.json":
        "ba08fbe3b5fae568aa7c8e609c34b573ece3ff2381afcaa3b6674276cdaab60e",
    "linear16.ppm":
        "e6a37cf8d853f7ddcef98733a95a9cd46b183af16a7f62a8a5f69fbd2c964abe",
    "display8.ppm":
        "b6dd19492537758d446dde850ea5ae8f14b9f98040719e9399268b7f8662c845",
    "gray8.pgm":
        "6043ec12e6af22802c42eb61df5e3f5ad2022643117849596a98f508e983dd22",
}


def test_image_writer_output_is_pinned(tmp_path):
    _write_images(tmp_path)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == IMAGES_PINNED


# Rows per chunk of the image writers at this width: the pinned images above
# are smaller than one chunk.
CHUNKED_WIDTH = 96
CHUNK_ROWS = formats.ENCODE_CHUNK_PIXELS // CHUNKED_WIDTH


@pytest.mark.parametrize("height", [1, CHUNK_ROWS - 1, CHUNK_ROWS,
                                    CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("mode", ["linear16_ppm", "display8_ppm"])
def test_rgb_writer_chunks_give_the_whole_frame_codes(tmp_path, height, mode):
    rgb = random_rgb(height, CHUNKED_WIDTH, seed=height, lo=-0.1, hi=1.1)
    if mode == "linear16_ppm":
        codes = np.floor(np.clip(rgb.data, 0.0, 1.0) * 65535.0 + 0.5).astype(">u2")
        maxval = 65535
    else:
        codes, maxval = isp.encode_display(rgb, gamma=2.4), 255
    formats.write_rgb(rgb, tmp_path / "out.ppm", mode=mode, gamma=2.4)
    assert (tmp_path / "out.ppm").read_bytes() == (
        f"P6\n{CHUNKED_WIDTH} {height}\n{maxval}\n".encode() + codes.tobytes())


def test_raw_and_gray_writers_chunks_give_the_whole_frame_codes(tmp_path):
    height = 2 * CHUNK_ROWS + 2
    bayer = random_bayer(height, CHUNKED_WIDTH, seed=5)
    formats.write_raw(bayer, tmp_path / "raw.pgm")
    span = bayer.white_level - bayer.black_level
    codes = np.floor(bayer.black_level + bayer.data * span + 0.5).astype(">u2")
    assert (tmp_path / "raw.pgm").read_bytes() == (
        f"P5\n{CHUNKED_WIDTH} {height}\n65535\n".encode() + codes.tobytes())
    formats.write_gray8(GrayImage(bayer.data), tmp_path / "gray.pgm")
    codes = np.floor(bayer.data * 255.0 + 0.5).astype(np.uint8)
    assert (tmp_path / "gray.pgm").read_bytes() == (
        f"P5\n{CHUNKED_WIDTH} {height}\n255\n".encode() + codes.tobytes())


@pytest.mark.parametrize("mode", ["linear16_ppm", "display8_ppm"])
def test_rgb_writer_holds_the_codes_and_one_chunk(tmp_path, mode):
    # 2^19 pixels, 8 chunks: the file's codes are a quarter (16-bit) or an
    # eighth (8-bit) of the float64 frame, and one chunk's float temporary
    # is 1/8 of it; quantizing the whole frame at once holds a float
    # temporary of the frame's size
    rgb = random_rgb(2048, 256, seed=1)
    tracemalloc.start()
    try:
        formats.write_rgb(rgb, tmp_path / "out.ppm", mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rgb.data.nbytes / 2


def test_integer_where_a_float_is_expected(tmp_path):
    argv, targets = _build(tmp_path, "read_isp_params")
    path = targets[""]
    obj = json.loads(path.read_text())
    assert obj["g"] == 1.0
    assert cli.main(argv + ["--out", str(tmp_path / "float.ppm")]) == cli.EXIT_OK
    _write_json(path, {**obj, "g": 1})
    assert cli.main(argv + ["--out", str(tmp_path / "int.ppm")]) == cli.EXIT_OK
    assert ((tmp_path / "int.ppm").read_bytes()
            == (tmp_path / "float.ppm").read_bytes())


# ------------------------------------------------- inputs that used to pass

@pytest.mark.parametrize("fields", [
    {"g": "1"}, {"ccm": "abc"}, {"ccm": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"theta": None}, {"r1": True}, {"ccm": [[1, 0, 0], [0, 1], [0, 0, 1]]},
    {"lut": {"activation": "tanh", "residual": True,
             "layers": [{"weights": [], "bias": []}] * 3}},
])
def test_ill_typed_params_exit_format(tmp_path, capsys, fields):
    argv, targets = _build(tmp_path, "read_isp_params")
    obj = json.loads(targets[""].read_text())
    _write_json(targets[""], {**obj, **fields})
    assert cli.main(argv + ["--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_SCHEMA_VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"residual": "no"}, {"residual": 1}, {"residual": False},
    {"activation": "relu"},
])
def test_nilut_is_tanh_and_residual_only(tmp_path, capsys, fields):
    argv, targets = _build(tmp_path, "read_isp_params")
    obj = json.loads(targets[""].read_text())
    _write_json(targets[""], {**obj, "lut": {**obj["lut"], **fields}})
    assert cli.main(argv + ["--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_SCHEMA_VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("reader, target, field", [
    ("read_isp_params", "", "g"), ("read_isp_params", "", "ccm"),
    ("read_fit_config", "", "schema_version"),
    ("read_eval_records", "records.0", "score"),
    ("read_eval_records", "records.0", "method"),
])
def test_missing_required_field(tmp_path, capsys, reader, target, field):
    # a dataclass field without a default is required in its file
    argv, targets = _build(tmp_path, reader)
    obj = json.loads(targets[target].read_text())
    del _object(obj, target)[field]
    _write_json(targets[target], obj)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_FORMAT
    assert "E_SCHEMA_FIELD" in capsys.readouterr().err


def test_optional_fields_take_their_defaults(tmp_path):
    path = _write_json(tmp_path / "fit.json", {"schema_version": 1, "budget": 5})
    assert formats.read_fit_config(path) == FitConfig(budget=5)
    path = _write_json(tmp_path / "augment.json", {"schema_version": 1})
    assert formats.read_augment_config(path) == aug.AugmentConfig()
    params = formats.read_isp_params(_write_json(tmp_path / "params.json", {
        "schema_version": 1, "g": 1, "r1": 3, "r2": 2, "theta": 0,
        "sigma": 0.5, "rho": 1, "ccm": np.eye(3).tolist()}))
    assert _equal(params.lut, isp.NilutWeights.identity())


def test_non_utf8_json_exits_format(tmp_path, capsys):
    argv, targets = _build(tmp_path, "read_isp_params")
    targets[""].write_bytes(b'{"g": "\xff"}')
    assert cli.main(argv + ["--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_JSON_PARSE" in capsys.readouterr().err


@pytest.mark.parametrize("obj, code", [
    ({"schema_version": 1, "records": 5}, "E_SCHEMA_VALUE"),
    (7, "E_SCHEMA_VALUE"),
    ([{"method": "a", "condition": "normal", "score": "x"}], "E_SCHEMA_VALUE"),
    ([{"method": ["a"], "condition": "normal", "score": 0.5}], "E_SCHEMA_VALUE"),
    ([{"method": "a", "condition": 3, "score": 0.5}], "E_SCHEMA_VALUE"),
    ([{"method": "a", "condition": "normal", "score": True}], "E_SCHEMA_VALUE"),
    ([{"method": "a", "condition": "normal", "score": math.nan}], "E_SCHEMA_VALUE"),
    ([5], "E_SCHEMA_FIELD"),
])
def test_bad_json_records_exit_format(tmp_path, capsys, obj, code):
    records = _write_json(tmp_path / "records.json", obj)
    assert cli.main(["report", "--records", str(records), "--reference", "a",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_FORMAT
    assert code in capsys.readouterr().err


def test_non_utf8_csv_records_exit_format(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes(b"method,condition,score\n\xff,normal,0.5\n")
    assert cli.main(["report", "--records", str(records), "--reference", "a",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_FORMAT
    assert "E_CSV_VALUE" in capsys.readouterr().err


def test_csv_row_of_two_fields_exits_format(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("method,condition,score\na,normal,0.5\na,0.5\n")
    assert cli.main(["report", "--records", str(records), "--reference", "a",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_FORMAT
    assert "E_CSV_VALUE: " in capsys.readouterr().err


def test_missing_sidecar_file_exits_format(tmp_path, capsys):
    argv, targets = _build(tmp_path, "read_raw")
    targets[""].unlink()
    assert cli.main(argv + ["--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_SIDECAR_FIELD: " in capsys.readouterr().err
    assert not (tmp_path / "out.ppm").exists()


@pytest.mark.parametrize("header", [b"P6\n0 0\n65535\n", b"P6\n-2 -3\n65535\n",
                                    b"P6\n4 0\n65535\n"])
def test_non_positive_pnm_dimensions(tmp_path, capsys, header):
    image = tmp_path / "scene.ppm"
    image.write_bytes(header)
    assert cli.main(["corrupt", "--input", str(image), "--kind", "low_light",
                     "--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_PGM_DIMS" in capsys.readouterr().err


@pytest.mark.parametrize("black_level", [-1, -5])
def test_sidecar_black_level_must_not_be_negative(tmp_path, capsys, black_level):
    # a negative black level would write a 0 sample as a wrapped code
    argv, targets = _build(tmp_path, "read_raw")
    sidecar = json.loads(targets[""].read_text())
    _write_json(targets[""], {**sidecar, "black_level": black_level})
    out = tmp_path / "out.ppm"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_FORMAT
    assert "E_SIDECAR_VALUE" in capsys.readouterr().err
    assert not out.exists()


def test_raw_round_trip_keeps_a_zero_sample_at_the_black_level(tmp_path):
    data = random_bayer(8, 8, seed=4).data.copy()
    data[0, 0] = 0.0
    bayer = BayerImage(data, CfaPattern.RGGB, 12, 64, 4095)
    formats.write_raw(bayer, tmp_path / "scene.pgm")
    codes = np.frombuffer((tmp_path / "scene.pgm").read_bytes()[-2 * 64:], ">u2")
    assert codes[0] == 64
    back = formats.read_raw(tmp_path / "scene.pgm")
    assert (back.black_level, back.white_level, back.data[0, 0]) == (64, 4095, 0.0)
    formats.write_raw(back, tmp_path / "again.pgm")
    assert ((tmp_path / "again.pgm").read_bytes()
            == (tmp_path / "scene.pgm").read_bytes())


def test_sidecar_sensor_name_must_be_a_string(tmp_path, capsys):
    argv, targets = _build(tmp_path, "read_raw")
    sidecar = json.loads(targets[""].read_text())
    _write_json(targets[""], {**sidecar, "sensor_name": 5})
    assert cli.main(argv + ["--out", str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT
    assert "E_SIDECAR_VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"r1": 1e-320}, {"r2": 1e-320}, {"r1": 1e308}, {"r2": 1e308},
    {"theta": 1e308}, {"theta": -1e308},
])
def test_extreme_finite_params_are_parameter_errors(tmp_path, capsys, fields):
    argv, targets = _build(tmp_path, "read_isp_params")
    obj = json.loads(targets[""].read_text())
    _write_json(targets[""], {**obj, **fields})
    code = cli.main(argv + ["--out", str(tmp_path / "out.ppm")])
    assert code == cli.EXIT_INVALID
    assert "representable range" in capsys.readouterr().err


def test_directory_as_input_exits_format(tmp_path):
    assert cli.main(["develop", "--raw", str(tmp_path), "--out",
                     str(tmp_path / "out.ppm")]) == cli.EXIT_FORMAT


@pytest.mark.parametrize("n, code", [("-2", cli.EXIT_USAGE), ("0", cli.EXIT_USAGE),
                                     ("1", cli.EXIT_OK)])
def test_augment_count_below_one_is_usage(tmp_path, n, code):
    argv, _ = _build(tmp_path, "read_raw")
    raw = argv[argv.index("--raw") + 1]
    out = tmp_path / "out"
    try:
        result = cli.main(["augment", "--input", raw, "--n", n, "--out", str(out)])
    except SystemExit as e:  # argparse refuses the count
        result = e.code
    assert result == code
    assert out.exists() == (code == cli.EXIT_OK)


def test_exit_code_table_order():
    # each library error class maps to the code the docstring lists
    table = dict(cli.EXIT_CODES)
    assert table[formats.FormatError] == cli.EXIT_FORMAT
    assert table[OSError] == cli.EXIT_FORMAT
    assert [code for _, code in cli.EXIT_CODES] == [4, 5, 5, 6, 4]


# ------------------------------------------------------------ PNM headers

def _pnm_input(tmp: Path, reader: str):
    """argv (with --out) of a run in which `reader` reads one valid PNM
    file, that file, and the file the run writes."""
    raw, pnm, out = tmp / "scene.pgm", tmp / "image.pnm", tmp / "out"
    formats.write_raw(random_bayer(16, 16, seed=12), raw)
    if reader == "read_raw":
        return ["develop", "--raw", str(raw), "--out", str(out)], raw, out
    if reader == "read_rgb":
        formats.write_rgb(random_rgb(16, 16, seed=4), pnm)
        formats.write_fit_config(FitConfig(budget=2), tmp / "fit.json")
        return ["fit", "--raw", str(raw), "--target", str(pnm), "--fit-config",
                str(tmp / "fit.json"), "--out", str(out)], pnm, out / "params.json"
    formats.write_gray8(GrayImage(random_rgb(16, 16, seed=5).data[..., 0]), pnm)
    option, kind = {"read_depth": ("--depth", "fog"),
                    "read_asset": ("--flare", "flare")}[reader]
    return ["corrupt", "--input", str(raw), "--kind", kind, "--seed", "3",
            option, str(pnm), "--out", str(out)], pnm, out


def _plain(m, w, h, v, p):
    return m + b"\n" + w + b" " + h + b"\n" + v + b"\n" + p


def _other_magic(m, w, h, v, p, resize=False):
    """The plain file under the other magic; with `resize` the payload fits
    it (a P5 image becomes a gray P6, a P6 one keeps its first channel)."""
    samples = np.frombuffer(p, f"V{1 if int(v) < 256 else 2}")
    if m == b"P5":
        m, samples = b"P6", np.repeat(samples, 3)
    else:
        m, samples = b"P5", samples[::3]
    return _plain(m, w, h, v, samples.tobytes() if resize else p)


# name -> (the E_* code every reader fails with, or None for exit 0 with the
# plain file's output; the file from (magic, width, height, maxval, payload)).
# The codes are those of the token loop the header regex replaced.
PNM_HEADERS = {
    "plain": (None, _plain),
    "comment_between_every_pair": (None, lambda m, w, h, v, p:
        m + b"#a\n" + w + b" #b\n" + h + b"\n# c d\n" + v + b"\n" + p),
    "comment_lines_everywhere": (None, lambda m, w, h, v, p:
        m + b"\n#1\n#2\n" + w + b"\n#3\n" + h + b"\n\n#4\n" + v + b"\n" + p),
    "empty_comments": (None, lambda m, w, h, v, p:
        m + b"#\n#\n" + w + b" " + h + b" #\n" + v + b"\n" + p),
    "crlf_and_a_cr_inside_a_comment": (None, lambda m, w, h, v, p:
        m + b"\r\n# c\r\n" + w + b" " + h + b"\r\n" + v + b"\n" + p),
    "cr_vt_ff_separators": (None, lambda m, w, h, v, p:
        m + b"\r" + w + b"\x0b" + h + b"\x0c" + v + b"\r" + p),
    "vt_ends_the_header": (None, lambda m, w, h, v, p:
        m + b" " + w + b" " + h + b" " + v + b"\x0b" + p),
    "ff_ends_the_header": (None, lambda m, w, h, v, p:
        m + b"\x0c" + w + b"\x0c" + h + b"\x0c" + v + b"\x0c" + p),
    "signed_and_zero_padded_tokens": (None, lambda m, w, h, v, p:
        m + b"\n+" + w + b" 00" + h + b"\n" + v + b"\n" + p),
    "comment_after_maxval": ("E_PGM_PAYLOAD", lambda m, w, h, v, p:
        _plain(m, w, h, v, b"#c\n" + p)),
    "comment_without_newline": ("E_PGM_PAYLOAD", lambda m, w, h, v, p:
        m + b"\n" + w + b" " + h + b"\n# no newline"),
    "comment_without_newline_after_maxval": ("E_PGM_PAYLOAD", lambda m, w, h, v, p:
        m + b"\n" + w + b" " + h + b" " + v + b" #"),
    "hash_inside_width": ("E_PGM_DIMS", lambda m, w, h, v, p:
        _plain(m, w + b"#x", h, v, p)),
    "hash_inside_maxval": ("E_PGM_DIMS", lambda m, w, h, v, p:
        _plain(m, w, h, v + b"#x", p)),
    "no_byte_after_maxval": ("E_PGM_DIMS", lambda m, w, h, v, p:
        m + b"\n" + w + b" " + h + b"\n" + v + p),
    "magic_only": ("E_PGM_PAYLOAD", lambda m, w, h, v, p: m),
    "truncated_after_width": ("E_PGM_PAYLOAD", lambda m, w, h, v, p:
        m + b"\n" + w),
    "lower_case_magic": ("E_PGM_MAGIC", lambda m, w, h, v, p:
        _plain(m.lower(), w, h, v, p)),
    "other_magic": ("E_PGM_MAGIC", _other_magic),
    "other_magic_and_its_payload": ("E_PGM_MAGIC",
                                    partial(_other_magic, resize=True)),
}
# read_asset takes either magic, so only the payload size can fail
ASSET_CODES = {"other_magic": "E_PGM_PAYLOAD",
               "other_magic_and_its_payload": None}
PNM_READERS = ("read_raw", "read_rgb", "read_depth", "read_asset")


@pytest.mark.parametrize("name", sorted(PNM_HEADERS))
@pytest.mark.parametrize("reader", PNM_READERS)
def test_pnm_header(tmp_path, capsys, reader, name):
    argv, path, out = _pnm_input(tmp_path, reader)
    assert cli.main(argv) == cli.EXIT_OK
    plain = out.read_bytes()
    out.unlink()
    magic, dims, maxval, payload = path.read_bytes().split(b"\n", 3)
    expected, header = PNM_HEADERS[name]
    if reader == "read_asset":
        expected = ASSET_CODES.get(name, expected)
    path.write_bytes(header(magic, *dims.split(), maxval, payload))
    capsys.readouterr()
    if expected is None:
        assert cli.main(argv) == cli.EXIT_OK
        assert out.read_bytes() == plain
    else:
        assert cli.main(argv) == cli.EXIT_FORMAT
        assert f"error: {expected}:" in capsys.readouterr().err
