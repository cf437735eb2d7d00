"""Shared pytest setup: a deterministic hypothesis profile for every test run."""

from hypothesis import settings

# Derandomized examples keep tier-1 reproducible; no deadline because the
# shared CI hosts are noisy enough to trip per-example timing limits.
settings.register_profile("marketrng", derandomize=True, deadline=None, database=None)
settings.load_profile("marketrng")
