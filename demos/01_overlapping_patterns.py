"""Count overlapping bit patterns and build the psi-square profile.

A binary sequence is scanned with a sliding window of size nu; the
frequencies of all 2**nu patterns feed a chi-square-style statistic.
Because neighbouring windows share bits, the raw statistic is not
chi-square distributed; its second difference across window sizes is,
with 2**(nu-2) degrees of freedom.  This script walks through the
counting, the statistic, and two exact symmetries.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from marketrng import BinarySequence, psi_profile, second_differences

bits = BinarySequence(
    bits=np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0], dtype=np.uint8),
    source_id="demo",
)
print(f"sequence: {''.join(map(str, bits.bits))}  (N = {len(bits)})")

# The counts are tallied here for display only; psi_profile counts every
# window size in one pass and keeps just the statistics: entry nu - 1 of
# its row is psi2(nu).
profile = psi_profile(bits, max_nu=8)
for nu in (1, 2, 3):
    windows = sliding_window_view(bits.bits, nu)
    labels, counts = np.unique(windows @ (1 << np.arange(nu)[::-1]), return_counts=True)
    table = {f"{p:0{nu}b}": int(c) for p, c in zip(labels.tolist(), counts)}
    print(f"nu={nu}: windows={len(windows)} counts={table} psi2={profile[nu - 1]:.4f}")

print("\nfull profile:")
d2 = second_differences(profile)  # entry nu - 3 is d2(nu), for nu = 3..8
print("  psi2 :", {nu: round(v, 3) for nu, v in enumerate(profile.tolist(), start=1)})
print("  d2   :", {nu: round(v, 3) for nu, v in enumerate(d2.tolist(), start=3)})
print("  dof  :", {nu: 2 ** (nu - 2) for nu in range(3, len(profile) + 1)})

# Flipping every bit permutes the pattern labels bijectively, so every
# statistic is unchanged, exactly.  The same holds for reversal.
flipped = psi_profile(BinarySequence(bits=1 - bits.bits, source_id="demo-flip"), max_nu=8)
reversed_profile = psi_profile(
    BinarySequence(bits=bits.bits[::-1].copy(), source_id="demo-rev"), max_nu=8
)
print("\ncomplement leaves the profile unchanged:", np.array_equal(flipped, profile))
print("reversal leaves the profile unchanged:  ", np.array_equal(reversed_profile, profile))

# Segment joins matter when sequences are concatenated from independent
# pieces: boundary-respecting mode refuses to count windows that straddle
# a join.
joined = BinarySequence(
    bits=np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=np.uint8),
    source_id="joined",
    segment_bounds=(4,),
)
flat = psi_profile(joined, 3, respect_boundaries=False)
split = psi_profile(joined, 3, respect_boundaries=True)
pieces = np.split(joined.bits, list(joined.segment_bounds))
print(f"\nconcatenated sequence, nu=3: flat windows={len(joined) - 2}, "
      f"boundary-respecting windows={sum(len(s) - 2 for s in pieces)}")
print(f"psi2(3) over all windows {flat[2]:.4f}, within segments {split[2]:.4f}")
