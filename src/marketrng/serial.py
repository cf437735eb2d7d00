"""Overlapping pattern counting and the psi-square statistic family.

A binary sequence of length N is scanned with an overlapping window of
size nu (stride 1), and the frequencies of all 2**nu patterns are
compared against the uniform expectation.  The raw statistic

    psi2(nu) = sum_i (n_i - lam)**2 / lam,   lam = (N - nu + 1) / 2**nu

is not asymptotically chi-square because neighbouring windows overlap;
its second difference

    d2(nu) = psi2(nu) - 2 * psi2(nu - 1) + psi2(nu - 2)

is asymptotically chi-square with 2**(nu - 2) degrees of freedom and
asymptotically independent across nu, which makes it the quantity that
downstream significance tests consume.  ``psi_profile`` returns one
sequence's psi2 values as a float64 row; ``second_differences`` is the
one definition of d2 and works on a row or on a (sequences, max_nu)
matrix of stacked rows alike.

Every window size comes from one bincount per sequence.  One exact
convolution gives each start position its MAX_WINDOW-bit code; the start's
key for window size nu is the code's top nu bits plus 2**nu - 2, so the
levels nu = 1..max_nu tile one key range and W_nu and sum(n_i**2) are
sums over each level.  A start with fewer than nu bits of room before its
segment ends keys a dump bin instead, which is cut off; only the last
MAX_WINDOW - 1 starts of each segment are looked at for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_WINDOW = 8
STREAM_KINDS = {"firm": "firm_separated", "year": "year_separated"}  # --stream value -> ExperimentStream kind
_UINT8 = np.dtype(np.uint8)  # a dtype compares faster with a dtype than with a scalar type
# The level-key layout, read-only and sliced [:max_nu]: the code weights
# 2**k (float32: numpy convolves floats about three times as fast as bytes
# on long inputs, and each code, a sum of distinct powers of 2 below 256,
# is exact), then as columns over nu the window size, the shift to a
# code's top nu bits and the level's first key 2**nu - 2, and last the
# (level index l, room r) pairs with 1 <= r <= l, level by level: a start
# r bits before its segment end has no room for a window of size l + 1.
# The pairs of levels 1..max_nu are the first max_nu * (max_nu - 1) / 2.
_WEIGHTS = (1 << np.arange(MAX_WINDOW)).astype(np.float32)
_NUS = np.arange(1, MAX_WINDOW + 1)[:, None]
_SHIFTS = (MAX_WINDOW - _NUS).astype(np.uint8)
_FIRSTS = ((1 << _NUS) - 2).astype(np.int16)
_TAIL_LEVELS, _TAIL_ROOMS = np.tril_indices(MAX_WINDOW, -1)
_TAIL_ROOMS = _TAIL_ROOMS + 1
for _layout in (_WEIGHTS, _NUS, _SHIFTS, _FIRSTS, _TAIL_LEVELS, _TAIL_ROOMS):
    _layout.setflags(write=False)


@dataclass(frozen=True)
class BinarySequence:
    """An immutable 0/1 array with a source id and optional segment joins.

    ``segment_bounds`` marks the start indices of follow-on segments when
    the sequence was concatenated from independent pieces (e.g. one firm
    after another inside a calendar-year array).  Bounds are strictly
    increasing and lie strictly inside the array.
    """

    bits: np.ndarray
    source_id: str = ""
    segment_bounds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        arr = np.array(self.bits)  # a copy: the caller's array stays theirs
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size < 1:
            raise ValueError("empty sequence")
        if arr.dtype != _UINT8 and ((arr == 0) | (arr == 1)).all():
            arr = arr.astype(np.uint8)  # only exact 0s and 1s are cast, so the cast changes no value
        if arr.dtype != _UINT8 or arr.max(initial=0) > 1:
            raise ValueError("bits must contain only 0 and 1")
        bounds = tuple(map(int, self.segment_bounds))
        if bounds and np.diff((0,) + bounds).min() <= 0:
            raise ValueError("segment_bounds must be strictly increasing and positive")
        if bounds and bounds[-1] >= arr.size:
            raise ValueError("segment_bounds must be smaller than the sequence length")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)
        object.__setattr__(self, "segment_bounds", bounds)

    def __len__(self) -> int:
        return int(self.bits.size)

    def segment_lengths(self) -> np.ndarray:
        """Length of each segment in order; one entry when there are no joins."""
        return np.diff((0, *self.segment_bounds, len(self)))


@dataclass(frozen=True)
class ExperimentStream:
    """The binary sequences of one experiment, and audit entries for what building them skipped."""

    kind: str
    sequences: list[BinarySequence]
    audit: list[dict] = field(default_factory=list)


def _level_counts(seq: BinarySequence, max_nu: int, respect_boundaries: bool) -> np.ndarray:
    """Pattern counts of every window size 1..max_nu from one bincount.

    Level nu holds the 2**nu counts of size-nu windows from key 2**nu - 2
    on.  A start's key at level nu is the top nu bits of its MAX_WINDOW-bit
    code (bits past the end of the array read as 0); a start with fewer
    than nu bits of room before its segment ends keys the dump bin, which
    is cut off.  Small integer dtypes keep the (max_nu, n) key array cheap.

    Only the last MAX_WINDOW - 1 starts before a segment end can lack
    room, so one 2-D index into the keys marks start end - r at level index
    l for each (l, r) pair and every end; ignore mode has one end, n.  Each
    start that lacks room is marked from its own end, and every other mark
    lands on a start that lacks room too: a start that a later end reaches
    back to has less room than r before its own end, and a start k = r - end
    before bit 0 wraps within its level onto start n - k >= 0 (the caller
    refuses n < max_nu), whose room is at most k < l + 1.
    """
    n = len(seq)
    code = np.convolve(seq.bits, _WEIGHTS)[MAX_WINDOW - 1 :].astype(np.uint8)
    keys = (code >> _SHIFTS[:max_nu]) + _FIRSTS[:max_nu]
    ends = np.fromiter((*seq.segment_bounds, n) if respect_boundaries else (n,), np.intp)
    pairs = max_nu * (max_nu - 1) // 2
    dump = (2 << max_nu) - 2
    keys[_TAIL_LEVELS[:pairs], ends[:, None] - _TAIL_ROOMS[:pairs]] = dump
    return np.bincount(keys.ravel(), minlength=dump + 1)[:dump]


def has_every_window(seq: BinarySequence, max_nu: int, respect_boundaries: bool) -> bool:
    """Whether the sequence, or in respect mode its longest segment, fits a size-max_nu window."""
    return int(seq.segment_lengths().max() if respect_boundaries else len(seq)) >= max_nu


def psi_profile(
    seq: BinarySequence, max_nu: int = MAX_WINDOW, respect_boundaries: bool = False
) -> np.ndarray:
    """psi2 for nu = 1..max_nu as a float64 row; entry nu - 1 is psi2(nu).

    psi2(nu) is evaluated as 2**nu * sum_i n_i**2 / W - W for W windows,
    which equals sum_i (n_i - lam)**2 / lam with lam = W / 2**nu and
    depends only on integer sums, so it is invariant under any
    permutation of the pattern labels.
    """
    if not 1 <= max_nu <= MAX_WINDOW:
        raise ValueError(f"max_nu must be in 1..{MAX_WINDOW}, got {max_nu}")
    if len(seq) < max_nu:
        raise ValueError(f"sequence length {len(seq)} shorter than max_nu {max_nu}")
    counts = _level_counts(seq, max_nu, respect_boundaries)
    firsts = _FIRSTS[:max_nu, 0]
    windows = np.add.reduceat(counts, firsts).tolist()
    squares = np.add.reduceat(counts * counts, firsts).tolist()
    if min(windows) <= 0:
        raise ValueError("pattern counts cover zero windows")
    return np.array([(2**nu * ssq) / w - w for nu, w, ssq in zip(range(1, max_nu + 1), windows, squares)])


def second_differences(psi: np.ndarray) -> np.ndarray:
    """d2 along the last axis of psi2 values for nu = 1, 2, ...; entry nu - 3 is d2(nu).

    d2 at nu = 2 would need a psi2(0) term, so a row of psi2(1..max_nu)
    yields d2(3..max_nu).
    """
    return psi[..., 2:] - 2.0 * psi[..., 1:-1] + psi[..., :-2]
