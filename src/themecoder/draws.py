"""Seeded draws: a pure-Python PCG64 stream that draws what
``numpy.random.default_rng(seed)`` draws for the two scalar draws that
decide artifact bytes, the exemplar draw (``choice``) and the sample
draw (``integers``).

numpy does not hold ``Generator.choice`` and ``Generator.integers``
fixed across releases, and loading numpy for one draw per run costs more
memory than the draw is worth; these rules are fixed here, so ingest and
classify load no numpy at all. The bootstrap in ``evaluation`` still draws
from numpy, which it imports on first use.

- Seeding is ``SeedSequence(seed).generate_state(4, uint64)``. The
  entropy is the seed's 32-bit words, least significant first, and
  ``[0]`` for a seed of 0. A 4-word pool is built with hashmix and mix
  (``INIT_A 0x43b0d7e5``, ``MULT_A 0x931e8875``, ``INIT_B 0x8b51f9dd``,
  ``MULT_B 0x58f38ded``, ``MIX_MULT_L 0xca01f9dd``, ``MIX_MULT_R
  0x4973f715``, ``XSHIFT 16``); entropy words after the fourth are mixed
  into the pool after it is built. The 8 output words pair up, low word
  first, into 4 uint64 words w0..w3. A negative seed raises ``ValueError``.
- PCG64 (O'Neill, 2014): ``inc = (w2 << 64 | w3) << 1 | 1`` and
  ``state = 0``; step once, add ``w0 << 64 | w1`` to the state, step
  again. A step is ``state = state * 0x2360ED051FC65DA44385DF649FCCF645
  + inc mod 2**128``; each output is the XSL-RR of the stepped state,
  ``rotr64(hi ^ lo, hi >> 58)``.
- A 32-bit draw splits one 64-bit output and uses the low half first;
  the high half is kept for the next 32-bit draw, even when 64-bit draws
  come in between.
- ``bounded(r)`` is a value in [0, r]. r = 0 returns 0 and draws
  nothing; r < 2**32 - 1 uses Lemire's method (Lemire, 2019) on 32-bit
  draws: ``m = x * (r + 1)``, and if ``m mod 2**32 < r + 1``, redraw
  while ``m mod 2**32 < (2**32 - 1 - r) mod (r + 1)``; the result is
  ``m >> 32``. r = 2**32 - 1 is one 32-bit draw; a larger r uses the same
  method on 64-bit draws, and r = 2**64 - 1 is one 64-bit draw.
- ``integers(low, high)`` is ``low + bounded(high - 1 - low)``.
- ``choice(n, k)`` draws k of range(n) without replacement. When
  ``n > 10000`` and ``k > n // 50`` it shuffles the tail: from
  ``idx = 0..n-1``, for i from n-1 down to ``max(n-k, 1)`` swap
  ``idx[i]`` with ``idx[bounded(i)]``, and return ``idx[n-k:]``.
  Otherwise it runs Floyd's algorithm: for j from n-k to n-1 take
  ``bounded(j)``, or j when that value is already taken; then for i from
  k-1 down to 1 swap pick i with pick ``bounded(i)``.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for i in range(8):  # 4 uint64 words as 8 uint32 words
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> _XSHIFT)
    return [out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)]


class Stream:
    """The draws of ``numpy.random.default_rng(seed)`` that themecoder makes,
    by the rules in this module's docstring."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        # the first step takes a state of 0 to inc; the seed is added, then one more step
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128
        self._half: int | None = None  # the high half of the last 64-bit output split for 32-bit draws

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        hi = state >> 64
        x, rot = (hi ^ state) & _MASK64, hi >> 58
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _bounded(self, r: int) -> int:
        """A value in [0, r], for 0 <= r < 2**64."""
        if r == 0:
            return 0
        if r < _MASK32:
            return _lemire(self._next32, r, 32)
        if r == _MASK32:
            return self._next32()
        if r < _MASK64:
            return _lemire(self._next64, r, 64)
        if r == _MASK64:
            return self._next64()
        raise ValueError(f"bound {r} does not fit in 64 bits")

    def integers(self, low: int, high: int) -> int:
        """A value in [low, high)."""
        if high <= low:
            raise ValueError(f"high <= low: {high} <= {low}")
        return low + self._bounded(high - 1 - low)

    def choice(self, n: int, k: int) -> list[int]:
        """``k`` distinct values of ``range(n)``, in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot take {k} distinct values of range({n})")
        if n > 10000 and k > n // 50:
            idx = list(range(n))
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                idx[i], idx[j] = idx[j], idx[i]
            return idx[n - k :]
        picks: list[int] = []
        taken: set[int] = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            if value in taken:
                value = j
            taken.add(value)
            picks.append(value)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def _lemire(draw, r: int, bits: int) -> int:
    """Lemire's bounded draw in [0, r] from ``bits``-bit draws."""
    mask, excl = (1 << bits) - 1, r + 1
    m = draw() * excl
    if m & mask < excl:
        threshold = (mask - r) % excl
        while m & mask < threshold:
            m = draw() * excl
    return m >> bits
