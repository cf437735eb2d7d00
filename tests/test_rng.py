"""RNG baselines: PCG64 bit-exactness, logistic map, synthetic shaping."""

import json
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import marketrng.rng
from marketrng.rng import (
    SyntheticSpec,
    logistic_bit_matrix,
    pcg64_words,
    rng_selftest,
    shape_synthetic,
)
from marketrng.serial import psi_profile, second_differences

MOD = 2**128
MULT = 47026247687942121848144207491837523525  # same constant, decimal spelling


def reference_words(initstate, initseq):
    """Independent in-test implementation of the XSL-RR 128/64 generator, word by word."""
    inc = (2 * initseq + 1) % MOD
    state = inc % MOD
    state = (state + initstate) % MOD
    state = (state * MULT + inc) % MOD
    while True:
        state = (state * MULT + inc) % MOD
        xored = (state >> 64) ^ (state % 2**64)
        rot = state >> 122
        yield ((xored >> rot) | (xored << (64 - rot))) % 2**64 if rot else xored


def reference_pcg64(initstate, initseq, count):
    """The first ``count`` words of the reference generator."""
    return list(islice(reference_words(initstate, initseq), count))


def word_bits(master_seed, stream, n_bits):
    """The first ``n_bits`` bits of successive reference words, read from their binary text."""
    words = reference_pcg64(master_seed, stream, (n_bits + 63) // 64)
    text = "".join(f"{word:064b}" for word in words)
    return [int(c) for c in text[:n_bits]]


def synthetic_bits(master_seed, stream, n_bits):
    """Bits shape_synthetic draws from PCG64 stream ``stream`` for a sequence of ``n_bits``."""
    spec = SyntheticSpec.firm_like(stream + 1, n_bits)
    return shape_synthetic(spec, "pcg64", master_seed=master_seed).sequences[stream].bits


def stream_seed(master_seed, j):
    """The logistic seed of synthetic sequence j: the first uniform, the top
    53 bits of a reference word of stream j, that is not an absorbing point
    of the map."""
    for word in reference_words(master_seed, j):
        seed = (word >> 11) / 2**53
        if seed not in (0.0, 0.25, 0.5, 0.75):  # uniforms lie in [0, 1)
            return seed


def reference_logistic(seed, n_bits, burn_in):
    """Scalar per-step logistic map with the seed-ladder re-seeding.

    Returns the recorded bits and how many ladder rungs were used.
    """
    golden = (5**0.5 - 1) / 2
    x, reseeds, bits = seed, 0, []
    for step in range(burn_in + n_bits):
        x = 4.0 * x * (1.0 - x)
        while x <= 0.0 or x >= 1.0 or x in (0.25, 0.5, 0.75):
            reseeds += 1
            x = (seed + reseeds * golden) % 1.0
        if step >= burn_in:
            bits.append(1 if x > 0.5 else 0)
    return bits, reseeds


def words(seed, stream, count):
    """The first ``count`` words of ``pcg64_words(seed, stream)``."""
    return list(islice(pcg64_words(seed, stream), count))


class TestPcg64Core:
    def test_same_seed_same_stream(self):
        assert words(123, 7, 50) == words(123, 7, 50)

    def test_matches_independent_reference(self):
        for seed, stream in ((42, 54), (0, 0), (2**96 + 5, 3)):
            assert words(seed, stream, 32) == reference_pcg64(seed, stream, 32)

    @given(
        seed=st.one_of(st.integers(-(2**130), 2**130), st.integers(2**128, 2**200)),
        stream=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**130)),
        count=st.integers(1, 40),
    )
    def test_any_integer_seed_and_stream_match_reference(self, seed, stream, count):
        # Negative seeds, seeds >= 2**128 and streams >= 2**64 are taken mod 2**128.
        assert words(seed, stream, count) == reference_pcg64(seed, stream, count)

    def test_fixture_vectors_match_reference(self):
        from marketrng.rng import _load_reference_vectors

        for case in _load_reference_vectors():
            expected = [int(word, 16) for word in case["outputs"]]
            assert expected == reference_pcg64(
                int(case["seed"]), int(case["stream"]), len(expected)
            )

    def test_matches_numpy_bit_generator(self):
        # numpy's PCG64 set to the state the reference seeding reaches for seed 42, stream 54.
        inc = 2 * 54 + 1
        bg = np.random.PCG64()
        raw = bg.state
        raw["state"] = {"state": ((inc + 42) * MULT + inc) % MOD, "inc": inc}
        bg.state = raw
        assert words(42, 54, 500) == [int(w) for w in bg.random_raw(500)]

    def test_distinct_streams_diverge_quickly(self):
        assert words(42, 0, 16) != words(42, 1, 16)


class TestPcg64Bits:
    def test_one_word_exactly(self):
        bits = synthetic_bits(9, 1, 64)
        word = next(pcg64_words(9, 1))
        expected = [(word >> (63 - i)) & 1 for i in range(64)]
        assert bits.tolist() == expected

    def test_sixty_five_bits(self):
        bits = synthetic_bits(9, 1, 65)
        first, second = words(9, 1, 2)
        assert bits[:64].tolist() == [(first >> (63 - i)) & 1 for i in range(64)]
        assert bits[64] == (second >> 63) & 1

    def test_prefix_property(self):
        # 8 is the shortest synthetic sequence.
        for k in (8, 63, 64, 65, 200):
            short = synthetic_bits(5, 5, k)
            longer = synthetic_bits(5, 5, k + 1)
            assert longer[:k].tolist() == short.tolist()

    def test_ones_fraction(self):
        bits = synthetic_bits(1234, 0, 1_000_000)
        assert abs(bits.mean() - 0.5) < 0.002

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            SyntheticSpec.firm_like(1, 0)


class TestLogistic:
    @pytest.mark.parametrize("seed", [0.0, 0.25, 0.5, 0.75, 1.0, -0.1, 1.5])
    def test_invalid_seeds_rejected(self, seed):
        if not 0.0 <= seed <= 1.0:
            with pytest.raises(ValueError):
                logistic_bit_matrix(np.array([seed]), 10)
            return
        # An absorbing seed is not kept: its first step re-seeds the row.
        row = logistic_bit_matrix(np.array([seed]), 10, burn_in=0)[0]
        bits, reseeds = reference_logistic(seed, 10, 0)
        assert reseeds >= 1
        assert row.tolist() == bits

    def test_deterministic(self):
        a = logistic_bit_matrix(np.array([0.123456]), 500, burn_in=100)
        b = logistic_bit_matrix(np.array([0.123456]), 500, burn_in=100)
        assert a.tolist() == b.tolist()

    def test_bits_are_binary_and_roughly_balanced(self):
        bits = logistic_bit_matrix(np.array([0.3141592653589793]), 20_000)[0]
        assert set(np.unique(bits)) <= {0, 1}
        assert abs(bits.mean() - 0.5) < 0.02

    def test_state_validation(self):
        for seed in (-0.1, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                logistic_bit_matrix(np.array([0.3, seed]), 8)

    def test_absorbing_fixed_point_triggers_reseed(self):
        # 0.75 is an exact fixed point: without a re-seed every bit is 1.
        row = logistic_bit_matrix(np.array([0.75]), 100, burn_in=0)[0]
        bits, reseeds = reference_logistic(0.75, 100, 0)
        assert reseeds == 1
        assert row.tolist() == bits
        assert 0 < row.sum() < 100

    def test_endpoint_cascade_triggers_reseed(self):
        # 0.5 maps to exactly 1.0, whose image 0.0 is absorbing for good.
        row = logistic_bit_matrix(np.array([0.5]), 100, burn_in=0)[0]
        bits, reseeds = reference_logistic(0.5, 100, 0)
        assert reseeds == 1
        assert row.tolist() == bits
        assert 0 < row.sum() < 100

    def test_reseed_path_is_deterministic(self):
        def run():
            return logistic_bit_matrix(np.array([0.2, 0.75]), 100, burn_in=0).tolist()

        assert run() == run()

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError):
            logistic_bit_matrix(np.array([0.3]), 10, burn_in=-1)
        with pytest.raises(ValueError):
            shape_synthetic(SyntheticSpec.firm_like(1, 10), "logistic", burn_in=-1)

    @given(
        seeds=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            min_size=1,
            max_size=6,
        ),
        n_bits=st.integers(1, 200),
        burn_in=st.integers(0, 120),
    )
    def test_matrix_matches_scalar_reference(self, seeds, n_bits, burn_in):
        rows = logistic_bit_matrix(np.array(seeds), n_bits, burn_in)
        assert rows.shape == (len(seeds), n_bits)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == reference_logistic(seed, n_bits, burn_in)[0]

    @given(
        seeds=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        ),
        n_bits=st.integers(1, 120),
    )
    def test_absorbing_starts_match_scalar_reference(self, seeds, n_bits):
        rows = logistic_bit_matrix(np.array(seeds), n_bits, burn_in=0)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == reference_logistic(seed, n_bits, 0)[0]

    def test_combined_chi2_comparison_frozen_run(self):
        # Frozen comparative run: with this spec and master seed the
        # logistic battery's combined chi-square at window size 8 exceeds
        # the PCG64 baseline's.  The margin is configuration-specific:
        # in exact arithmetic the thresholded r=4 map is equivalent to
        # fair coin flips, so only floating-point artifacts separate the
        # two generators and the gap at desk scale is small.
        spec = SyntheticSpec.firm_like(150, 600)
        pcg_total = sum(
            second_differences(psi_profile(s, max_nu=8))[8 - 3]
            for s in shape_synthetic(spec, "pcg64", master_seed=4).sequences
        )
        logistic_total = sum(
            second_differences(psi_profile(s, max_nu=8))[8 - 3]
            for s in shape_synthetic(spec, "logistic", master_seed=4).sequences
        )
        assert pcg_total == pytest.approx(9505.82, abs=0.5)
        assert logistic_total == pytest.approx(9649.46, abs=0.5)
        assert logistic_total > pcg_total


class TestShapeSynthetic:
    def test_firm_like_counts_and_lengths(self):
        stream = shape_synthetic(SyntheticSpec.firm_like(10, 227), master_seed=1)
        assert stream.kind == "firm_separated"
        assert len(stream.sequences) == 10
        assert all(len(s) == 227 for s in stream.sequences)

    def test_year_like_variable_lengths(self):
        lengths = [24, 36, 48]
        stream = shape_synthetic(SyntheticSpec("year_like", tuple(lengths)), master_seed=1)
        assert stream.kind == "year_separated"
        assert [len(s) for s in stream.sequences] == lengths

    def test_master_seed_reproducibility(self):
        spec = SyntheticSpec.firm_like(5, 100)
        a = shape_synthetic(spec, master_seed=99)
        b = shape_synthetic(spec, master_seed=99)
        assert all(
            x.bits.tolist() == y.bits.tolist() for x, y in zip(a.sequences, b.sequences)
        )
        assert [s.source_id for s in a.sequences] == [s.source_id for s in b.sequences]

    def test_streams_fan_out_from_master_seed(self):
        # Sequence j runs on PCG stream j, i.e. increment 2j + 1.
        spec = SyntheticSpec.firm_like(3, 64)
        stream = shape_synthetic(spec, master_seed=7)
        for j, seq in enumerate(stream.sequences):
            assert seq.bits.tolist() == word_bits(7, j, 64)
            assert seq.source_id == f"sim{j:05d}"

    @given(
        lengths=st.lists(st.integers(8, 300), min_size=1, max_size=6),
        master_seed=st.integers(0, 2**32),
    )
    def test_year_like_pcg64_matches_per_sequence_draws(self, lengths, master_seed):
        # Each row must be the head of its own stream's words, whatever the
        # lengths before it.
        spec = SyntheticSpec("year_like", tuple(lengths))
        stream = shape_synthetic(spec, "pcg64", master_seed=master_seed)
        for j, (seq, length) in enumerate(zip(stream.sequences, lengths, strict=True)):
            assert seq.bits.tolist() == word_bits(master_seed, j, length)

    def test_logistic_seeds_from_streams_with_default_burn_in(self):
        stream = shape_synthetic(
            SyntheticSpec.firm_like(2, 32), generator="logistic", master_seed=3
        )
        for j, seq in enumerate(stream.sequences):
            seed = stream_seed(3, j)
            assert 0.0 < seed < 1.0
            assert seq.bits.tolist() == reference_logistic(seed, 32, 100)[0]

    def test_absorbing_uniforms_are_redrawn(self, monkeypatch):
        # An absorbing uniform has probability about 2**-51, so the redraw
        # path only runs with planted words: 0.5 and 0.25 are skipped.
        third = 0x9E3779B97F4A7C15
        monkeypatch.setattr(marketrng.rng, "pcg64_words", lambda seed, stream: iter([1 << 63, 1 << 62, third]))
        stream = shape_synthetic(SyntheticSpec.firm_like(1, 40), generator="logistic", burn_in=7)
        assert stream.sequences[0].bits.tolist() == reference_logistic((third >> 11) / 2**53, 40, 7)[0]

    @given(
        lengths=st.lists(st.integers(8, 300), min_size=1, max_size=6),
        master_seed=st.integers(0, 2**32),
        burn_in=st.integers(0, 120),
    )
    def test_year_like_logistic_matches_scalar_reference(self, lengths, master_seed, burn_in):
        spec = SyntheticSpec("year_like", tuple(lengths))
        stream = shape_synthetic(spec, "logistic", master_seed=master_seed, burn_in=burn_in)
        for j, (seq, length) in enumerate(zip(stream.sequences, lengths, strict=True)):
            assert seq.bits.tolist() == reference_logistic(stream_seed(master_seed, j), length, burn_in)[0]

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            SyntheticSpec.firm_like(2, 7)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            shape_synthetic(SyntheticSpec.firm_like(1, 16), generator="mt19937")


class TestSelftest:
    def test_intact_build_passes(self):
        result = rng_selftest()
        assert result.ok and result.first_mismatch is None

    def test_single_bit_perturbation_fails(self):
        from marketrng.rng import _load_reference_vectors

        cases = json.loads(json.dumps(_load_reference_vectors()))
        word = int(cases[0]["outputs"][3], 16) ^ 1  # flip the lowest bit
        cases[0]["outputs"][3] = f"{word:#018x}"
        result = rng_selftest(cases)
        assert not result.ok
        assert result.first_mismatch == 3
        assert "output 3" in result.message
