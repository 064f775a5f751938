"""Stable orders of integer keys by one sort of packed words.

The one home of the ordering helpers that the trace parser, its
randomizations (:mod:`cachechurn.shuffle`), the stack-distance pass
(:mod:`cachechurn.lrusim`) and the generators (:mod:`cachechurn.synth`)
share.
"""

import numpy as np

#: Rows per block of a pass whose temporaries would otherwise span a column.
_BLOCK = 1 << 15


def _ranks(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation `order`, as int32."""
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank


def _stable_order(keys: np.ndarray, sort: bool = False) -> np.ndarray:
    """The permutation that sorts integer `keys` stably, by one sort of
    distinct uint64 words, each key less the least above its index (faster
    than numpy's stable sort); wider keys take their rank (below 2**32 keys).
    With `sort`, int64 `keys` are sorted in place too, from the words."""
    n, bits = len(keys), max(len(keys) - 1, 1).bit_length()
    low, high = (int(keys.min()), int(keys.max())) if n else (0, 0)
    if (high - low).bit_length() + bits > 64:
        order = _stable_order(np.unique(keys, return_inverse=True)[1])
        if sort:
            keys.sort()
        return order
    words = keys.astype(np.uint64)  # a negative key wraps, and the difference wraps back
    words -= np.uint64(low % 2**64)
    words <<= np.uint64(bits)
    for lo in range(0, n, _BLOCK):  # no full-length index temporary
        words[lo:lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, n), dtype=np.uint64)
    words.sort()
    for lo in range(0, n if sort else 0, _BLOCK):  # each key: its word's high bits, and the least
        keys[lo:lo + _BLOCK] = words[lo:lo + _BLOCK] >> np.uint64(bits)
        keys[lo:lo + _BLOCK] += low
    words &= np.uint64((1 << bits) - 1)
    return words.view(np.int64)
