import numpy as np
import pytest

from rawbench.errors import ParameterError
from rawbench.rng import BLOCK_WORDS, RngStream, check_seed, derive_key


def test_same_seed_same_sequence():
    a = RngStream.from_seed(1234, stream_index=5)
    b = RngStream.from_seed(1234, stream_index=5)
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))
    assert np.array_equal(a.normals(1001), b.normals(1001))


def test_substreams_differ():
    master = 99
    streams = [RngStream.from_seed(master, stream_index=i) for i in range(8)]
    draws = [tuple(s.uniforms(4)) for s in streams]
    assert len(set(draws)) == len(draws)


def test_counter_split_is_contiguous():
    a = RngStream.from_seed(7)
    b = RngStream.from_seed(7)
    whole = a.uniforms(10)
    parts = np.concatenate([b.uniforms(3), b.uniforms(7)])
    assert np.array_equal(whole, parts)


def test_uniform_bounds_and_moments():
    u = RngStream.from_seed(11).uniforms(200000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_moments():
    z = RngStream.from_seed(12).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_chisq1_mean():
    rng = RngStream.from_seed(13)
    draws = np.array([rng.chisq1() for _ in range(20000)])
    assert draws.min() >= 0.0
    assert abs(draws.mean() - 1.0) < 0.05  # E[chi^2_1] = 1


def test_integers_in_range():
    vals = RngStream.from_seed(3).integers(10000, 7)
    assert vals.min() >= 0 and vals.max() <= 6
    assert len(np.unique(vals)) == 7


def test_choice_distinct():
    rng = RngStream.from_seed(5)
    picks = rng.choice_distinct(6, 6)
    assert sorted(picks.tolist()) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        rng.choice_distinct(7, 6)


def test_known_values_frozen():
    # regression pin: integer-only state transitions must never drift
    key = derive_key(2024, 3)
    assert key == derive_key(2024, 3)
    first = RngStream(key=key).uniforms(2)
    again = RngStream(key=key).uniforms(2)
    assert np.array_equal(first, again)


def test_stream_bits_pinned():
    # the same seed must give the same bytes on every version: a change to
    # a single bit of uniforms, normals or integers fails here
    rng = RngStream(key=derive_key(2024, 3), counter=12345)
    assert [v.hex() for v in rng.uniforms(3).tolist()] == [
        "0x1.73a93a0878472p-2", "0x1.7cd02b68d3ad0p-2", "0x1.00e86fe1da390p-1"]
    assert [v.hex() for v in rng.normals(3).tolist()] == [
        "-0x1.92a6f4895a227p-3", "-0x1.39dea3af84e25p+0", "0x1.9afe210d83acdp-5"]
    assert rng.integers(4, 1000).tolist() == [65, 76, 303, 978]
    assert rng.counter == 12356


def _one_shot_uniforms(rng, n):
    """Every word of the draw in one array, as a stream without blocks
    would make it; advances rng.counter by n."""
    z = np.arange(rng.counter + 1, rng.counter + n + 1, dtype=np.uint64)
    rng.counter += n
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(rng.key)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(multiplier)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _one_shot_normals(rng, n):
    """Box-Muller over one array of 2 * ceil(n / 2) uniforms, in the
    layout of `RngStream.normals`."""
    m = (n + 1) // 2
    u = _one_shot_uniforms(rng, 2 * m)
    r = 1.0 - u[0::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = u[1::2]
    angle *= 2.0 * np.pi
    out = np.empty(2 * m)
    np.cos(angle, out=out[0::2])
    np.sin(angle, out=out[1::2])
    out[0::2] *= r
    out[1::2] *= r
    return out[:n]


_B = BLOCK_WORDS


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3, 3 * _B + 1])
@pytest.mark.parametrize("draw, one_shot", [
    ("uniforms", _one_shot_uniforms), ("normals", _one_shot_normals)])
def test_blocks_match_one_shot_draw(n, draw, one_shot):
    # the blocks change no bit and leave the counter where one draw does
    blocked = RngStream(key=derive_key(2024, 3), counter=12345)
    reference = RngStream(key=derive_key(2024, 3), counter=12345)
    got = getattr(blocked, draw)(n)
    assert got.tobytes() == one_shot(reference, n).tobytes()
    assert blocked.counter == reference.counter


@pytest.mark.parametrize("draw", ["uniforms", "normals"])
def test_negative_count_is_refused_before_the_counter_moves(draw):
    rng = RngStream(key=5, counter=10)
    with pytest.raises(ValueError):
        getattr(rng, draw)(-3)
    assert rng.counter == 10


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, "7"])
@pytest.mark.parametrize("keyed", [check_seed, derive_key, RngStream.from_seed])
def test_a_seed_outside_the_rule_keys_no_stream(keyed, seed):
    # -1 and 2**64 would fold onto seeds 2**64 - 1 and 0, True onto 1
    with pytest.raises(ParameterError, match="2\\^64"):
        keyed(seed)


@pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.int8(5)])
def test_a_numpy_seed_keys_the_stream_of_the_equal_int(seed):
    assert type(check_seed(seed)) is int
    assert (RngStream.from_seed(seed, 3).uniforms(8).tobytes()
            == RngStream.from_seed(5, 3).uniforms(8).tobytes())
