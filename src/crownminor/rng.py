"""Splittable counter-based pseudorandom generator.

All randomized constructions in this package are deterministic functions
of (parameters, seed); this keeps every witness replayable. The core is
SplitMix64, which is tiny, fast enough in pure Python at our scales, and
easy to reimplement elsewhere at the witness level.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def split(self, key):
        """Independent child generator for the given integer key."""
        return SplitMix64(_mix((self._state ^ (key & _MASK)) + _GAMMA & _MASK))

    def sample(self, seq, k):
        """k distinct elements of seq, in draw order, in O(k) time and
        memory; seq needs len() and indexing, and is never copied.

        It is the partial Fisher-Yates shuffle of a full copy of seq,
        run over a sparse swap map (position -> index of the element
        now there). Step i draws a uniform index below m = n - i by
        rejection: a next_u64 value at or above floor(2^64 / m) * m is
        refused and drawn again. The draws run on a local copy of the
        state, written back at the end, so each costs one call to _mix.
        """
        n = len(seq)
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        if k > n:
            raise ValueError("sample size exceeds population")
        state = self._state
        moved = {}
        picked = []
        for i in range(k):
            m = n - i
            limit = _MASK - (_MASK + 1) % m
            while True:
                state = (state + _GAMMA) & _MASK
                x = _mix(state)
                if x <= limit:
                    break
            j = i + x % m
            picked.append(seq[moved.get(j, j)])
            moved[j] = moved.get(i, i)
        self._state = state
        return picked
