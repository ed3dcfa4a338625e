"""Golden outputs: the SHA-256 of every `corrupt --sweep` output and of both
mosaic corruptions on a synthetic RAW, pinned so that a refactor which
changes a single output byte fails here. The RAW is built from
`conftest.random_bayer`; no binary fixture is committed.
"""

import hashlib

import pytest

from rawbench import KINDS, cli, formats
from rawbench.corrupt import CorruptionSpec, corrupt_bayer

from conftest import random_bayer

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
