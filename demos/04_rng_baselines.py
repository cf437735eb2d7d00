"""The PCG64 null baseline and the logistic-map comparison generator.

PCG64 (XSL-RR 128/64) provides the yardstick: second differences from
its bit streams follow the chi-square null, so empirical sequences can
be compared against what an ideal generator produces.  A whole synthetic
dataset reproduces from one master seed, sequence j running on stream
increment 2j + 1.
"""

import numpy as np

from marketrng import (
    SyntheticSpec,
    pcg64_words,
    psi_profile,
    rng_selftest,
    shape_synthetic,
    summarize_stream,
)
from marketrng.rng import logistic_bit_matrix

print("stored reference vectors:", rng_selftest().message)

words = pcg64_words(42, 54)
print("first outputs for seed 42, stream 54:",
      " ".join(f"{next(words):#018x}" for _ in range(3)))

# Bits are the words MSB first; sequence j of a synthetic run takes them
# from stream j, so stream 54 of seed 42 is sequence 54 here.
demo = shape_synthetic(SyntheticSpec.firm_like(55, 40), master_seed=42)
print("first 40 bits, MSB first:", "".join(map(str, demo.sequences[54].bits)))

# A firm-like synthetic dataset: second-difference means should land on
# the degrees of freedom 2, 4, 8, 16, 32, 64.
stream = shape_synthetic(SyntheticSpec.firm_like(500, 227), generator="pcg64", master_seed=42)
profiles = [psi_profile(s, max_nu=8) for s in stream.sequences]
report = summarize_stream(profiles, sequence_ids=[s.source_id for s in stream.sequences])
print("\nPCG64 firm-like run (500 sequences of length 227):")
for nu in report.d2_nus:
    xi = 2 ** (nu - 2)
    summary = report.d2_summary[nu]
    combined = report.combined[nu]
    print(f"  nu={nu}: mean d2 = {summary['mean']:6.2f} (dof {xi:2d}), "
          f"significant share = {report.significant_fraction[nu]:.3f}, "
          f"combined chi2 {'significant' if combined.significant else 'null retained'}")

# The logistic map x <- 4x(1-x), thresholded at 0.5, is the simplistic
# baseline; it re-seeds deterministically if it ever lands on an
# absorbing point.
bits = logistic_bit_matrix(np.array([0.37251]), 60, burn_in=100)[0]
print("\nlogistic-map bits:", "".join(map(str, bits)))
ones = logistic_bit_matrix(np.array([0.37251]), 20_000)[0].mean()
print(f"ones fraction over 20k bits: {ones:.4f}")
