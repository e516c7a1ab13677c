"""SplitMix64 pseudo-random stream.

Constants are the published ones (increment 0x9E3779B97F4A7C15, mixers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), so any implementation of
SplitMix64 reproduces the exact same stream from the same 64-bit seed.
Every randomized path in the toolkit draws from this generator, never
from wall-clock or interpreter state.
"""

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; one instance = one stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n). Rejection sampling keeps it unbiased."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (2**64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
