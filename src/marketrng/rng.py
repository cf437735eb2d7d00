"""Pseudo-random baselines: bit-exact PCG64 and a logistic-map generator.

``pcg64_words`` yields the words of PCG64, the XSL-RR 128/64 member of
the permuted congruential family: a 128-bit LCG with the reference
multiplier, whose output is the xor of the state halves rotated right by
the state's top six bits.  Its pure-integer step is bit-exact to the
published reference (state advances first, the output permutation reads
the advanced state), which is also the generator behind numpy's default
bit stream, and it is the only code that produces PCG64 words here, so
``rng_selftest`` checks exactly that code.

The logistic-map generator iterates x <- 4x(1-x) and thresholds at 0.5,
re-seeding deterministically whenever a trajectory hits an absorbing
value.  It stands in as the deliberately simplistic baseline.
``logistic_bit_matrix`` advances many trajectories together as one
float64 array; elementwise the step is the same IEEE operation as the
scalar map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterator

import numpy as np

from marketrng.serial import MAX_WINDOW, STREAM_KINDS, BinarySequence, ExperimentStream

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1

LOGISTIC_R = 4.0
_GOLDEN_CONJUGATE = 0.6180339887498949
SYNTHETIC_KINDS = tuple(f"{k}_like" for k in STREAM_KINDS)  # a synthetic kind mirrors a stream kind
GENERATORS = ("pcg64", "logistic")


def pcg64_words(seed: int, stream: int) -> Iterator[int]:
    """The 64-bit output words of PCG64 stream ``stream`` from ``seed``, forever.

    Reference seeding: increment 2*stream + 1, and the state steps once
    from increment + seed.  Each word then steps the state and permutes
    it.  Seeds and streams are any integers, taken mod 2**128.
    """
    inc = (2 * stream + 1) & _MASK128
    state = ((inc + seed) * PCG64_MULTIPLIER + inc) & _MASK128
    while True:
        state = (state * PCG64_MULTIPLIER + inc) & _MASK128
        word, rot = (state >> 64) ^ (state & _MASK64), state >> 122
        yield ((word >> rot) | (word << (-rot & 63))) & _MASK64


def _absorbing(x: float | np.ndarray):
    """True where x is outside (0, 1) or is 0.25, 0.5 or 0.75, points the
    r=4 map sends exactly onto a fixed point (0 or 0.75) within two steps."""
    return (x <= 0.0) | (x >= 1.0) | (x == 0.25) | (x == 0.5) | (x == 0.75)


def logistic_bit_matrix(seeds: np.ndarray, n_bits: int, burn_in: int = 100) -> np.ndarray:
    """Bits of one logistic trajectory per seed, as rows of a uint8 matrix.

    Every trajectory starts at its seed, takes ``burn_in`` unrecorded
    steps, then records x > 0.5 after each of ``n_bits`` steps.  A point
    that lands on an absorbing value is replaced by the next point of a
    low-discrepancy seed ladder anchored at that row's seed, so each row
    is a pure function of (seed, burn_in) and a prefix of any longer run.
    Seeds may lie anywhere in [0, 1]; an absorbing seed re-seeds on its
    first step.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    anchors = np.asarray(seeds, dtype=np.float64)
    if not np.all((anchors >= 0.0) & (anchors <= 1.0)):
        raise ValueError("logistic seeds must lie in [0, 1]")
    x = anchors.copy()
    reseeds = [0] * x.size
    out = np.empty((x.size, n_bits), dtype=np.uint8)
    for step in range(burn_in + n_bits):
        x = LOGISTIC_R * x * (1.0 - x)
        for row in np.flatnonzero(_absorbing(x)).tolist():
            while True:
                reseeds[row] += 1
                fresh = (float(anchors[row]) + reseeds[row] * _GOLDEN_CONJUGATE) % 1.0
                if not _absorbing(fresh):
                    break
            x[row] = fresh
        if step >= burn_in:
            out[:, step - burn_in] = x > 0.5
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic dataset mirroring an empirical stream."""

    kind: str
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if not self.lengths:
            raise ValueError("need at least one sequence length")
        if not all(isinstance(n, (int, np.integer)) for n in self.lengths):
            raise ValueError("sequence lengths must be integers")
        if any(n < MAX_WINDOW for n in self.lengths):
            raise ValueError(f"sequence lengths must be >= {MAX_WINDOW}")
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))

    @classmethod
    def firm_like(cls, count: int, length: int) -> "SyntheticSpec":
        return cls("firm_like", (length,) * count)

    @property
    def count(self) -> int:
        return len(self.lengths)


def shape_synthetic(
    spec: SyntheticSpec,
    generator: str = "pcg64",
    master_seed: int = 0,
    burn_in: int = 100,
) -> ExperimentStream:
    """Generate one sequence per spec entry, all from a single master seed.

    Sequence j uses PCG64 stream j (increment 2j+1); the logistic
    generator draws its per-sequence seed from that same stream, so both
    baselines reproduce exactly from (spec, generator, master_seed).
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    kind = STREAM_KINDS[spec.kind.removesuffix("_like")]
    if generator == "pcg64":
        # Each sequence is the head of its own stream's whole words, MSB first;
        # every stream's words go into one flat array, unpacked at once.
        counts = [(n + 63) // 64 for n in spec.lengths]
        words = chain.from_iterable(islice(pcg64_words(master_seed, j), c) for j, c in enumerate(counts))
        bits = np.unpackbits(np.array(list(words), ">u8").view(np.uint8))
        firsts = accumulate(counts, initial=0)  # each stream's first word
        rows = (bits[64 * k : 64 * k + n] for k, n in zip(firsts, spec.lengths))
    else:
        seeds = []
        for j in range(spec.count):  # the first uniform (top 53 bits) of stream j that is not absorbing
            uniforms = ((w >> 11) * 2.0**-53 for w in pcg64_words(master_seed, j))
            seeds.append(next(u for u in uniforms if not _absorbing(u)))
        matrix = logistic_bit_matrix(np.array(seeds), max(spec.lengths), burn_in)
        rows = (row[:n] for row, n in zip(matrix, spec.lengths))
    sequences = [BinarySequence(bits=row, source_id=f"sim{j:05d}") for j, row in enumerate(rows)]
    return ExperimentStream(kind=kind, sequences=sequences)


def _load_reference_vectors() -> list[dict]:
    from importlib import resources  # only rng-selftest reads the vectors

    path = resources.files("marketrng").joinpath("data/pcg64_vectors.json")
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def rng_selftest(cases: list[dict] | None = None) -> str | None:
    """Regenerate the stored reference vectors word by word: the first mismatch as one line, or None."""
    if cases is None:
        cases = _load_reference_vectors()
    for case in cases:
        expected = [int(word, 16) for word in case["outputs"]]
        words = pcg64_words(int(case["seed"]), int(case["stream"]))
        for index, (word, got) in enumerate(zip(expected, words)):
            if got != word:
                return (
                    f"seed={case['seed']} stream={case['stream']} output {index}: "
                    f"expected {word:#018x}, got {got:#018x}"
                )
    return None
