"""Splittable counter-based pseudorandom generator.

All randomized constructions in this package are deterministic functions
of (parameters, seed); this keeps every witness replayable. The core is
SplitMix64, which is tiny, fast enough in pure Python at our scales, and
easy to reimplement elsewhere at the witness level. `next_u64` draws one
value at a time; `SplitMix64.samples` is the per-host sampler, which
draws one sample for each of many keys in a single call.
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

    def samples(self, keys, seq, k):
        """For each integer key, k distinct elements of seq in draw order,
        drawn by the independent child generator of that key. Leaves
        this generator's state as it was. seq needs len() and indexing,
        and is never copied.

        The child of key starts at _mix(((state ^ key) + GAMMA) mod 2^64).
        Its sample is the partial Fisher-Yates shuffle of a full copy of
        seq, run over a sparse swap map (position -> index of the element
        now there). Step i draws a uniform index below m = n - i by
        rejection: a draw above floor(2^64 / m) * m - 1 is refused and
        drawn again. The k limits are computed once for all keys, and
        _mix is written out inline, as this loop makes every draw of a
        host.
        """
        n = len(seq)
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        if k > n:
            raise ValueError("sample size exceeds population")
        mask, gamma, state = _MASK, _GAMMA, self._state
        steps = [(i, n - i, mask - (mask + 1) % (n - i)) for i in range(k)]
        rows = []
        for key in keys:
            s = _mix(((state ^ (key & mask)) + gamma) & mask)
            moved = {}
            picked = []
            for i, m, limit in steps:
                while True:
                    s = (s + gamma) & mask
                    z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                    z ^= z >> 31
                    if z <= limit:
                        break
                j = i + z % m
                picked.append(seq[moved.get(j, j)])
                moved[j] = moved.get(i, i)
            rows.append(picked)
        return rows
