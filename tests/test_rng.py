import numpy as np
import pytest

from rawbench.rng import RngStream, derive_key


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
