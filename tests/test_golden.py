"""Golden outputs: the SHA-256 of every `corrupt --sweep` output, of both
mosaic corruptions, of `develop` (library output on every CFA, and the
`--display8 --dump-stages` files), of `augment` and of `fit` on synthetic
RAWs, pinned so that a refactor which changes a single output byte fails
here. The RAWs are built from `conftest.random_bayer`; no binary fixture is
committed.
"""

import csv
import hashlib

import numpy as np
import pytest

from rawbench import KINDS, CfaPattern, cli, formats, isp, pool
from rawbench import augment as aug
from rawbench.augment import AugmentConfig
from rawbench.corrupt import CorruptionSpec, corrupt_bayer
from rawbench.errors import ParameterError
from rawbench.fit import FitConfig
from rawbench.raw import filter_path
from rawbench.rng import RngStream, derive_key

from conftest import random_bayer, random_lut

# kind -> (derived seed, SHA-256 of the linear16 PPM) for master seed 11
SWEEP = {
    "low_light": (1476335004, "8f1455621a49a4c5d83c379cbd3e254d12b0de5a0930134e9e2ed0a66061ba01"),
    "overexposure": (1230906533, "45736217d6ac209b5b276b24ae70b1e23ebcb2a0135463afe5d8372b0da071e3"),
    "flare": (471108104, "44de6ad480b2e755e1a85ad81c6ec200d2df1d076b3fb1014332c0c00f85404c"),
    "low_flare": (477578011, "2bc033206887e362ad85f09273f3131229689a144a704c021d7f2d2ceed5b138"),
    "fog": (392058372, "8b3a683993bb27336c40feabe2268e90e2f3aebf16991e73a4df617eea9f7194"),
    "rain": (1698318689, "b90b0e72f28ca55728e6f02b8da92dcf7edace46d80719e658505087bd36f261"),
    "rain_fog": (978613585, "0fc2fa4a7cbf0dd35c1a942fec5e15f8d76c55905c75870432dd27cc060c3091"),
    "snow": (593427709, "3c20585b605e8435c0559624b4e50631674872ab410a9827b942fcc3dbad3054"),
    "motion_blur": (1167295105, "f049d759704f57a5fb11add50d91c5b1a9d01be209df5668bc1531304e015e1d"),
    "defocus_blur": (74640306, "e46cec4e7b8a02722f3640f5e5c44300511cadfb733d417afce31ea312078afc"),
    "sensor_noise": (2085646934, "c66f109a886ca93cabcb8cd0ef1fa87f558c56a04deb3b19bbdafd0ea7fc7861"),
    "cmos_damage": (1919049713, "99007cde468114f162cbd04b001765e2221349e6d9a32aabefc285d086028302"),
    "moire": (11949274, "50d55795154a6f62b70c55b0dcc972212715f9ea3489517326821a7587478c77"),
    "vignetting": (122091093, "a077a6cced6bf5fd07d1932fff03b741ac9af407c39bb267cde29d992a54b4cf"),
    "chromatic_aberration": (1438299, "c2b7b7c376d412367cb75d24e7d554f71610e4ac42c2d26fdf75f6c7da35a06d"),
    "sensor_matrix_a": (1314342652, "22d4b60395be30748b49b93ad4fb85d105a319b0b76c17fede4eae80177adf16"),
    "sensor_matrix_b": (650273723, "47eab3611abf56071be72125a9ade4e5ec4c32fdfdf5da5c950895b958b9bc64"),
}

# (kind, seed) -> SHA-256 of the float64 mosaic after corrupt_bayer
MOSAIC = {
    ("sensor_noise", 7): "90474131970971ca8925c58c3b0cea72b631f51e224bc9a8c4f6051db5ab6cd2",
    ("cmos_damage", 8): "41f9e7445d5e01911a3a3de6beb940f6d78ed3afce14193a65e6025fbb5df172",
}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(raw path, sweep directory) of a --jobs 1 sweep at master seed 11."""
    root = tmp_path_factory.mktemp("golden")
    raw = root / "scene.pgm"
    formats.write_raw(random_bayer(24, 32, seed=5), raw)
    out = root / "jobs1"
    assert cli.main(["corrupt", "--input", str(raw), "--sweep", "--seed",
                     "11", "--jobs", "1", "--out", str(out)]) == cli.EXIT_OK
    return raw, out


def test_sweep_outputs_match_golden(sweep):
    _, out = sweep
    got = {}
    for line in (out / "hashes.txt").read_text().split():
        image_id, kind, seed, sha = line.split(",")
        assert image_id == "scene"
        path = out / f"scene__{kind}__{seed}.ppm"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
        got[kind] = (int(seed), sha)
    assert list(got) == list(KINDS)
    assert got == SWEEP


@pytest.mark.parametrize("kind, seed", sorted(MOSAIC))
def test_mosaic_outputs_match_golden(kind, seed):
    bay = random_bayer(16, 16, seed=4)
    out = corrupt_bayer(CorruptionSpec(kind=kind, seed=seed), bay)
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == MOSAIC[(kind, seed)]


def test_jobs_do_not_change_the_sweep(sweep, tmp_path):
    raw, out = sweep
    assert cli.main(["corrupt", "--input", str(raw), "--sweep", "--seed",
                     "11", "--jobs", "2", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert ((tmp_path / "hashes.txt").read_text()
            == (out / "hashes.txt").read_text())


def test_bench_replays_the_sweep_manifest(sweep, tmp_path):
    raw, out = sweep
    assert cli.main(["bench", "--manifest", str(out / "manifest.json"),
                     "--raw", str(raw), "--out", str(tmp_path)]) == cli.EXIT_OK
    assert ((tmp_path / "hashes.txt").read_text()
            == (out / "hashes.txt").read_text())


# --- develop goldens ---------------------------------------------------------
#
# SHA-256 of the float64 output of `isp.develop` on all four CFAs, with an
# identity LUT and with a random NILUT, on two images: "bands" (200 x 148)
# spans several row bands with a partial last one, and its 29,600 pixels are
# not a multiple of NILUT_BLOCK_ROWS; "small" (10 x 14) is smaller than its
# 21-tap kernel. Each CFA gets its own kernel, so the three filter paths of
# `raw.spatial_filter` are all covered: 21 and 13 taps separable, 5 taps
# direct, and a rotated 9-tap kernel through the FFT.

# cfa -> (kernel size, theta) on the "bands" image
DEVELOP_KERNELS = {
    CfaPattern.RGGB: (21, 0.0),
    CfaPattern.BGGR: (13, 0.0),
    CfaPattern.GRBG: (5, 0.0),
    CfaPattern.GBRG: (9, 0.4),
}
DEVELOP_IMAGES = {"bands": (200, 148), "small": (10, 14)}

# (image, cfa, lut) -> SHA-256 of develop(...).data.tobytes()
DEVELOP = {
    ("bands", "RGGB", "identity"):
        "b8f9402d96010cec9703f1fc82ebd290d3d3141f4e0ea23a9b5d198f250ad85d",
    ("bands", "RGGB", "random"):
        "5f35b43596f7ac813b0139d47f00cb9198b2b9140e52a4a7aefc7d8b804ff03a",
    ("bands", "BGGR", "identity"):
        "03a53510f859eb881e1593c83bf9726e90714458d2d56379b1d573393e291743",
    ("bands", "BGGR", "random"):
        "24158a6b4e400db474916d83082f3ad9d182fa4f3a8baed6032009fa2b115f56",
    ("bands", "GRBG", "identity"):
        "d74a9152f1b15109094f2106429cc639d01e6fa2fec4fa10fe4f0381d8f8adbc",
    ("bands", "GRBG", "random"):
        "08e6466371be0f2e02270eb63467f5bb3fac27c0b35b46c9eb91b8c2ec1960ae",
    ("bands", "GBRG", "identity"):
        "1ec4ca953da1c80d469f6a9e47c06f4fe57b1e1fda33a1f5bd0146f81a4ffa29",
    ("bands", "GBRG", "random"):
        "f1f5dafe60b09118ee1ef75c381898963fca67b09656052c07d857321b7cb542",
    ("small", "RGGB", "identity"):
        "1f9dec69e7da9f30a707a355adf33f16d005aa8fcdfe738ae0eed1ca759a5ed3",
    ("small", "RGGB", "random"):
        "8b4110708cbe5c7410fe7a5946722646d4897cc4b22c8d93db0ae5a33518b937",
    ("small", "BGGR", "identity"):
        "de3ed97423dcded0eef632e02b300e686c2af6bc4c716a7c61ad45d75f710a5d",
    ("small", "BGGR", "random"):
        "c4f2ce11cc3f57f1548b52b45793eab960b5563b92222ef69d15c161c4eabb70",
    ("small", "GRBG", "identity"):
        "86151f44c529b8431cd2496597317f0ac15a4d071e5bb342307be5a6f68520fa",
    ("small", "GRBG", "random"):
        "06e362a952a56faa752d21a39ad6b61fb7826dfc64b3477edf98d5f99261c045",
    ("small", "GBRG", "identity"):
        "9a2770d8db95261b904a220e2e6ea2b9a3c49bb139237333525421d621664659",
    ("small", "GBRG", "random"):
        "10451a393520da08b0df46cab2cb4a9927da271ccefc548cbe155e8649f26e46",
}

# file -> SHA-256 of `develop --display8 --dump-stages` on a 64 x 48 RAW
DEVELOP_CLI = {
    "out.ppm": "9683c91bc0995f507a8c4d3ff25c520620aa591758de86aee20b7151297b532c",
    "color_corrected.ppm": "062641855972492b05890f9e99901f8aac768158e93fdde18b331095b2f44cd5",
    "demosaiced.ppm": "9abc11c8252285b79858105ab7a778d0be8d088cd12d9af27465218b3c173745",
    "denoised.ppm": "acc1c21d3cf020c172f03f50b579395bc5967c56caffda54487aa0ffded16c9f",
    "final.ppm": "7d09fe4b91ad7bbc9dad53b6a985b1cc75b3769ecc6fb46e331ad6fdf4aa6fff",
    "white_balanced.ppm": "c5ae63b3aba34b72d1e27e51dd32a36583daab4e7c18834939b6bfdd3ef24a5f",
}


def golden_params(seed: int, theta: float, lut: str) -> isp.IspParams:
    u = RngStream.from_seed(seed).uniforms(14)
    return isp.IspParams(
        g=0.8 + 0.7 * u[0], r1=2.0 + 2.0 * u[1], r2=1.0 + u[2], theta=theta,
        sigma=0.2 + 0.6 * u[3], rho=1.0 + 3.0 * u[4],
        ccm=np.eye(3) + 0.1 * (u[5:14].reshape(3, 3) - 0.5),
        lut=random_lut(seed + 1) if lut == "random" else isp.NilutWeights.identity())


def develop_cases():
    for image in DEVELOP_IMAGES:
        for cfa in CfaPattern:
            for lut in ("identity", "random"):
                yield image, cfa.value, lut


@pytest.mark.parametrize("image, cfa, lut", list(develop_cases()))
def test_develop_output_matches_golden(image, cfa, lut):
    cfa = CfaPattern(cfa)
    h, w = DEVELOP_IMAGES[image]
    size, theta = DEVELOP_KERNELS[cfa] if image == "bands" else (21, 0.0)
    bayer = random_bayer(h, w, seed=20 + list(CfaPattern).index(cfa), cfa=cfa)
    out = isp.develop(bayer, golden_params(30, theta, lut), kernel_size=size)
    assert out.data.shape == (h, w, 3)
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == DEVELOP[(image, cfa.value, lut)]


def test_develop_cli_outputs_match_golden(tmp_path):
    raw = tmp_path / "scene.pgm"
    params = tmp_path / "params.json"
    formats.write_raw(random_bayer(64, 48, seed=25, cfa=CfaPattern.GRBG), raw)
    formats.write_isp_params(golden_params(40, 0.0, "random"), params)
    stages = tmp_path / "stages"
    assert cli.main(["develop", "--raw", str(raw), "--params", str(params),
                     "--kernel-size", "11", "--display8", "--dump-stages",
                     str(stages), "--out", str(tmp_path / "out.ppm")]) == cli.EXIT_OK
    files = [tmp_path / "out.ppm"] + sorted(stages.iterdir())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert got == DEVELOP_CLI


# --- augment goldens ---------------------------------------------------------
#
# SHA-256 of every file of `augment --n 8 --seed 12` on a 24 x 32 RAW, once
# with the default config and once with a config that takes only the quality
# branch. Between them the eight samples take every branch, the iso and the
# aniso kernel and all three filter paths of `raw.spatial_filter` (checked
# below, so that a change of seed or config cannot drop one silently).

AUGMENT_SEED = 12
QUALITY_ONLY = dict(prob_original=0.0, prob_brightness=0.0, prob_chroma=0.0,
                    prob_quality=1.0)

# config -> {file: SHA-256}
AUGMENT = {
    "default": {
        "coefficients.csv":
            "41722006736bfbb4b14971a977ccf76387007b9945c9b30c86f18d439333fe72",
        "scene_aug_0000.ppm":
            "476e7dedc11734efa497cf0336999bf29866e001c8d7f78dd67ddea5d32daefe",
        "scene_aug_0001.ppm":
            "48e43bd2a5a305362c7c8f78fed4157faf2346b00ba27760811e78e890da137b",
        "scene_aug_0002.ppm":
            "9defc3c41f815d635e6e0b71d59576976ce5584a5f140c2fdcabadbe702659ce",
        "scene_aug_0003.ppm":
            "c14a1a590aa4bd4c4762ba1c9986561407882f4ca9f0cbc1465882f1d05419aa",
        "scene_aug_0004.ppm":
            "b8c2727411ca49257e1f7b9c76e3c3101527ea272752a9f99a48d81a41099c4c",
        "scene_aug_0005.ppm":
            "c0d649f884cb925a6e94a73c1c8c6738927fe691a3106881c5267d2525322958",
        "scene_aug_0006.ppm":
            "b56983f1d42d72988f372169d865358febf3ef64f9e06262c355badcc4616808",
        "scene_aug_0007.ppm":
            "60375d85b296509d882e430aca4fbadd054d2f9130df85206e69d45cb85743ba",
    },
    "quality": {
        "coefficients.csv":
            "c0cbaf3dc661d75a2d521891d529e2617fccb33e3f2d39aaef2ae12033b3891e",
        "scene_aug_0000.ppm":
            "8b60680626db89a176a7cb205f47f225bd325a553d050532844604bcbcb66f97",
        "scene_aug_0001.ppm":
            "9cf30aabc185c623ac90834d6338cbdb724a2c3af02ca2482999829318c60e39",
        "scene_aug_0002.ppm":
            "9defc3c41f815d635e6e0b71d59576976ce5584a5f140c2fdcabadbe702659ce",
        "scene_aug_0003.ppm":
            "d1d8dd305c29790dcd875f0985ff041d7f056ff0310a0547c2728354e9cf1443",
        "scene_aug_0004.ppm":
            "70ffb58a9376a92720cb69a23a3d7319269bd8e43fea238150826941372269ab",
        "scene_aug_0005.ppm":
            "806446cc68741ec27cba584bb989044de87d0b43ee2e3f46746cab27c71fbb46",
        "scene_aug_0006.ppm":
            "d7ffcae5f58a951ba15b09abb2a97d16780c330876f2cb8713eecce44aa5aebc",
        "scene_aug_0007.ppm":
            "60375d85b296509d882e430aca4fbadd054d2f9130df85206e69d45cb85743ba",
    },
}


def run_augment(root, config: str, out) -> int:
    """`augment --n 8` on the golden RAW; returns the exit code."""
    raw = root / "scene.pgm"
    formats.write_raw(random_bayer(24, 32, seed=5), raw)
    argv = ["augment", "--input", str(raw), "--n", "8", "--seed",
            str(AUGMENT_SEED), "--out", str(out)]
    if config == "quality":
        formats.write_augment_config(AugmentConfig(**QUALITY_ONLY), root / "quality.json")
        argv += ["--augment-config", str(root / "quality.json")]
    return cli.main(argv)


def file_hashes(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def sample_paths(coefficients) -> set:
    """{(branch, kernel kind, filter path)} of the rows of a coefficients.csv."""
    paths = set()
    for row in csv.DictReader(coefficients.read_text().splitlines()):
        if row["branch"] != "quality":
            paths.add((row["branch"], "", ""))
            continue
        kernel = isp.make_gaussian_kernel(float(row["r1"]), float(row["r2"]),
                                          float(row["angle"]), int(row["size"]))
        paths.add(("quality", row["kind"], filter_path(kernel.taps)))
    return paths


@pytest.mark.parametrize("config", sorted(AUGMENT))
def test_augment_outputs_match_golden(tmp_path, config):
    assert run_augment(tmp_path, config, tmp_path / "out") == cli.EXIT_OK
    assert file_hashes(tmp_path / "out") == AUGMENT[config]


def test_augment_goldens_cover_every_branch_and_filter_path(tmp_path):
    paths = set()
    for config in AUGMENT:  # each config has quality samples
        assert run_augment(tmp_path, config, tmp_path / config) == cli.EXIT_OK
        config_paths = sample_paths(tmp_path / config / "coefficients.csv")
        assert "quality" in {p[0] for p in config_paths}, config
        paths |= config_paths
    assert {p[0] for p in paths} == {"original", "brightness", "chroma", "quality"}
    assert {p[1] for p in paths if p[0] == "quality"} == {"iso", "aniso"}
    assert {p[2] for p in paths if p[0] == "quality"} == {"separable", "fft", "direct"}


@pytest.mark.parametrize("workers", [1, 3])
def test_workers_do_not_change_augment(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(pool, "WORKERS", workers)
    for config in AUGMENT:
        assert run_augment(tmp_path, config, tmp_path / config) == cli.EXIT_OK
        assert file_hashes(tmp_path / config) == AUGMENT[config]


@pytest.mark.parametrize("workers", [1, 3])
def test_failed_augment_sample_writes_no_coefficients(tmp_path, monkeypatch,
                                                      capsys, workers):
    pipeline = aug.augment_pipeline

    def fail_sample_5(x, config, rng):
        if rng.key == derive_key(AUGMENT_SEED, 5):
            raise ParameterError("sample 5 failed")
        return pipeline(x, config, rng)

    monkeypatch.setattr(pool, "WORKERS", workers)
    monkeypatch.setattr(aug, "augment_pipeline", fail_sample_5)
    assert run_augment(tmp_path, "default", tmp_path / "out") == cli.EXIT_INVALID
    assert "sample 5 failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "coefficients.csv").exists()
    assert not (tmp_path / "out" / "scene_aug_0005.ppm").exists()


# --- fit goldens -------------------------------------------------------------
#
# SHA-256 of `params.json` and `trace.csv` from `fit --budget 50` with each
# optimizer, on a 32 x 24 RAW and a target developed from it with other
# parameters.

# optimizer -> {file: SHA-256}
FIT = {
    "coordinate": {
        "params.json":
            "6dabcf7d2e52b745fb879db74f40209d85aa7b85fdf5957a73413c26d9d10835",
        "trace.csv":
            "c64d774ba573e79b740772383c00a6a0d89c21cef6323ffc8a9a37126b8dc32d",
    },
    "evolution": {
        "params.json":
            "18d8385a95d394de7863bdb09059fc35ff022cdaff10bd0bdf52476fa2a04884",
        "trace.csv":
            "453940e3a1ced75f88611b51eb8e00ffa90e8779af2e8c38f852bc15217fd390",
    },
}


@pytest.mark.parametrize("optimizer", sorted(FIT))
def test_fit_outputs_match_golden(tmp_path, optimizer):
    raw, target, config = (tmp_path / name for name in
                           ("scene.pgm", "target.ppm", "fit.json"))
    bayer = random_bayer(32, 24, seed=31, cfa=CfaPattern.BGGR)
    formats.write_raw(bayer, raw)
    formats.write_rgb(isp.develop(bayer, golden_params(32, 0.0, "identity"),
                                  kernel_size=13), target)
    formats.write_fit_config(FitConfig(optimizer=optimizer, budget=50, seed=3), config)
    out = tmp_path / "out"
    assert cli.main(["fit", "--raw", str(raw), "--target", str(target),
                     "--fit-config", str(config), "--out", str(out)]) == cli.EXIT_OK
    assert file_hashes(out) == FIT[optimizer]
