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

A seed is an integer in [0, 2^64), numpy integers included, bools not.
`check_seed` holds that rule and `derive_key` applies it to every stream's
seed, so no seed folds onto another seed's stream.

Draws are made in blocks of BLOCK_WORDS counter values, each run through
every pass before the next, so a block's arrays stay in the L2 cache
instead of making one memory pass over the whole draw per step.
`uniforms` allocates its output and one block of scratch per call and
reuses the scratch for every block; `normals` reuses one block of radii
and takes each block's uniforms from one `uniforms` call. The blocks
change no bit: every step is elementwise in the layout a one-shot draw
uses (for normals, `log` on the contiguous radius copy, `cos` and `sin`
from the strided angle view into the strided output), and a block is a
multiple of every SIMD width, so each element meets the same code path at
the same lane as it would in one array over the whole draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, is_int

_MASK64 = (1 << 64) - 1
SEED_LIMIT = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_INV_2_53 = 2.0 ** -53
# Counter values per block of a draw: a power of two near 2^15 keeps a
# block's words, scratch and output in L2 (2^15 and 2^16 measured alike,
# 2^17 slower).
BLOCK_WORDS = 1 << 15
# i * _GOLDEN for the i-th word of a block, so that a block's words are
# (first counter * _GOLDEN + key) + _STEPS, wrapping as one product does.
_STEPS = np.arange(BLOCK_WORDS, dtype=np.uint64)
_STEPS *= np.uint64(_GOLDEN)
_STEPS.flags.writeable = False


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (no numpy scalar overflow)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray, shifted: np.ndarray) -> None:
    """SplitMix64 finalizer on a uint64 array, in place, with `shifted` (of
    z's shape) as scratch."""
    # uint64 array ops wrap silently, unlike numpy scalars
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted


def check_seed(seed) -> int:
    """`seed` as a Python int; ParameterError unless it is a seed (module docstring)."""
    if not (is_int(seed) and 0 <= int(seed) < SEED_LIMIT):
        raise ParameterError(f"seed {seed!r} is not an integer in [0, 2^64)")
    return int(seed)


def derive_key(master_seed: int, stream_index: int = 0) -> int:
    """Key for a per-image substream: mix(master_seed, stream_index)."""
    return _mix64(_mix64(check_seed(master_seed))
                  ^ _mix64((stream_index + 1) * _STREAM_SALT))


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

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on [0, 1), drawn in blocks of
        BLOCK_WORDS words (see the module docstring)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n)
        first = self.counter + 1
        self.counter += n
        words = np.empty(min(n, BLOCK_WORDS), dtype=np.uint64)
        shifted = np.empty_like(words)
        for start in range(0, n, BLOCK_WORDS):
            block = out[start:start + BLOCK_WORDS]
            size = len(block)
            z = words[:size]
            offset = ((first + start) * _GOLDEN + self.key) & _MASK64
            np.add(_STEPS[:size], np.uint64(offset), out=z)
            _mix64_array(z, shifted[:size])
            z >>= np.uint64(11)
            block[:] = z
            block *= _INV_2_53
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(lo + (hi - lo) * self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on ordered uniform pairs, one
        `uniforms` block at a time (see the module docstring)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(2 * ((n + 1) // 2))
        radius = np.empty(min(len(out), BLOCK_WORDS) // 2)
        for start in range(0, len(out), BLOCK_WORDS):
            block = out[start:start + BLOCK_WORDS]
            u = self.uniforms(len(block))
            r = radius[:len(u) // 2]
            np.subtract(1.0, u[0::2], out=r)  # (0, 1], safe for log
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            angle = u[1::2]
            angle *= 2.0 * np.pi
            np.cos(angle, out=block[0::2])
            np.sin(angle, out=block[1::2])
            block[0::2] *= r
            block[1::2] *= r
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
