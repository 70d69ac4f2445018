"""The random stream of `numpy.random.default_rng(seed)`, on the standard library.

`default_rng(seed)` seeds PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905): a 128-bit LCG whose XSL-RR output is the
64-bit draw, seeded from `SeedSequence`'s hash of the seed's 32-bit words.
`Rng.random`, `Rng.uniform`, `Rng.integers` and `Rng.choice` draw exactly
what numpy's `Generator.random`, `Generator.uniform(low, high)`,
`Generator.integers(k)` and `Generator.choice(n, k, replace=False)` draw,
so the generator, the simulator and the CLI give the same random layouts,
traces and failure sets with or without numpy.
"""

from __future__ import annotations

_M32 = 2**32 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645     # PCG's default 128-bit multiplier


def _hash_mix(value: int, hash_const: list) -> int:
    """SeedSequence's hashmix; hash_const[0] is its running multiplier."""
    value ^= hash_const[0]
    hash_const[0] = hash_const[0] * 0x931E8875 & _M32
    value = value * hash_const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _seed_words(seed: int) -> list:
    """SeedSequence(seed).generate_state(4, uint32 pairs) as four 64-bit words."""
    entropy = [seed >> 32 * k & _M32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    hash_const = [0x43B0D7E5]
    pool = [_hash_mix(entropy[k] if k < len(entropy) else 0, hash_const) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash_mix(pool[src], hash_const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash_mix(word, hash_const))
    hash_const, state = 0x8B51F9DD, []
    for k in range(8):
        word = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        word = word * hash_const & _M32
        state.append(word ^ word >> 16)
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


class Rng:
    """`numpy.random.default_rng(seed)` for a non-negative int seed."""

    def __init__(self, seed: int):
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (words[0] << 64 | words[1])) & _M128
        self._next64()
        self._half = None            # the high half of a 64-bit draw split by _next32

    def _next64(self) -> int:
        state = self._state = (self._state * _MULT + self._inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (x >> rot | x << 64 - rot) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """One uniform float in [0, 1): the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """One uniform float in [low, high): low plus the float span
        high - low times `random()`, as numpy scales it."""
        return low + (high - low) * self.random()

    def _bounded(self, high: int) -> int:
        """Uniform int in [0, high], high < 2**32, by Lemire's rejection of
        32-bit draws (numpy's buffered_bounded_lemire_uint32)."""
        if high == 0:
            return 0
        if high == _M32:
            return self._next32()
        span = high + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - high) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, k: int) -> int:
        """One uniform int in 0..k-1 (1 <= k <= 2**32), drawn as numpy's
        scalar `integers(k)` draws it: by `_bounded`, from the same 32-bit
        half draws as `choice`."""
        if not 1 <= k <= 2**32:
            raise ValueError(f"integers({k}) needs 1 <= k <= 2**32")
        return self._bounded(k - 1)

    def choice(self, n: int, k: int) -> list:
        """The sorted set of `choice(n, k, replace=False)`: k distinct ints in
        0..n-1 (n <= 2**32).  numpy draws them by a partial Fisher-Yates
        shuffle of the tail when n > 10,000 and k > n // 50, else by Floyd's
        algorithm; its final shuffle reorders but does not change the set."""
        if not 0 <= k <= n <= 2**32:
            raise ValueError(f"cannot choose {k} of {n} without replacement")
        if n > 10000 and k > n // 50:
            pool = list(range(n))
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                pool[i], pool[j] = pool[j], pool[i]
            return sorted(pool[n - k:])
        chosen = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            chosen.add(j if value in chosen else value)
        return sorted(chosen)
