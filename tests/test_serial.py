"""Serial-core: pattern counting, psi-square, differences, invariances."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketrng.report import summarize_stream
from marketrng.rng import SyntheticSpec, shape_synthetic
from marketrng.serial import MAX_WINDOW, BinarySequence, has_every_window, psi_profile, second_differences


def seq(bits, bounds=()):
    return BinarySequence(bits=np.array(bits, dtype=np.uint8), segment_bounds=bounds)


def flip(s):
    """Every bit of ``s`` flipped, with the same id and segment joins."""
    return BinarySequence(bits=1 - s.bits, source_id=s.source_id, segment_bounds=s.segment_bounds)


def psi_of(counts):
    """sum_i (n_i - lam)**2 / lam of one count table, in exact integer form, lam = W / 2**nu."""
    counts = np.asarray(counts, dtype=np.int64)
    w = int(counts.sum())
    return (counts.size * int(counts @ counts)) / w - w


def brute_force_counts(bits, nu):
    """Independent oracle: materialise every window as a tuple."""
    counts = {}
    for i in range(len(bits) - nu + 1):
        window = tuple(int(b) for b in bits[i : i + nu])
        counts[window] = counts.get(window, 0) + 1
    out = np.zeros(2**nu, dtype=np.int64)
    for window, c in counts.items():
        index = int("".join(str(b) for b in window), 2)
        out[index] = c
    return out


@st.composite
def segmented_sequences(draw):
    """Bits (sometimes all zero) with random joins, often shorter than 8."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        bits = [0] * n
    bounds = draw(st.sets(st.integers(1, n - 1), max_size=12)) if n > 1 else set()
    return seq(bits, tuple(sorted(bounds)))


def oracle_counts(s, nu, respect):
    """Brute-force counts for one window size, per segment in respect mode."""
    pieces = np.split(s.bits, list(s.segment_bounds)) if respect else [s.bits]
    counts = np.zeros(2**nu, dtype=np.int64)
    for piece in pieces:
        if piece.size >= nu:
            counts += brute_force_counts(piece, nu)
    return counts


def oracle_profile(s, max_nu, respect):
    """psi2(1..max_nu) from brute-force counts, or None where a level has no window."""
    tables = [oracle_counts(s, nu, respect) for nu in range(1, max_nu + 1)]
    if any(t.sum() == 0 for t in tables):
        return None
    return np.array([psi_of(t) for t in tables])


def d2_of(p, nu):
    """The scalar second difference d2(nu) of a psi2 row ``p`` (entry nu - 1 is psi2(nu))."""
    return p[nu - 1] - 2.0 * p[nu - 2] + p[nu - 3]


def assert_same_profile(got, expected):
    """Equal float64 psi2 rows, and d2 of ``got`` equal to the scalar d2 of ``expected``."""
    assert got.dtype == np.float64 and got.tolist() == list(expected)
    assert second_differences(got).tolist() == [d2_of(expected, nu) for nu in range(3, len(expected) + 1)]


def assert_matches_oracle(s, max_nu, respect):
    """psi_profile equals the brute-force profile, or raises where the oracle has no window."""
    if len(s) < max_nu:
        with pytest.raises(ValueError, match=f"sequence length {len(s)} shorter than max_nu {max_nu}"):
            psi_profile(s, max_nu, respect)
        return
    expected = oracle_profile(s, max_nu, respect)
    if expected is None:
        with pytest.raises(ValueError, match="pattern counts cover zero windows"):
            psi_profile(s, max_nu, respect)
        return
    assert_same_profile(psi_profile(s, max_nu, respect), expected)


def assert_predicate_matches(s, max_nu, respect):
    """has_every_window is true exactly where the oracle has a profile and, from max_nu bits on, psi_profile counts."""
    fits = has_every_window(s, max_nu, respect)
    assert fits is (oracle_profile(s, max_nu, respect) is not None)
    if fits:
        psi_profile(s, max_nu, respect)
    elif len(s) >= max_nu:  # shorter ones are refused before counting
        with pytest.raises(ValueError, match="pattern counts cover zero windows"):
            psi_profile(s, max_nu, respect)


class TestDifferential:
    @given(segmented_sequences(), st.integers(1, 8), st.booleans())
    def test_counts_match_brute_force(self, s, nu, respect):
        # psi2 at the largest window size reads that size's counts.
        if nu > len(s):
            with pytest.raises(ValueError, match=f"sequence length {len(s)} shorter than max_nu {nu}"):
                psi_profile(s, nu, respect)
            return
        expected = oracle_counts(s, nu, respect)
        if not expected.any():
            with pytest.raises(ValueError, match="pattern counts cover zero windows"):
                psi_profile(s, nu, respect)
            return
        assert psi_profile(s, nu, respect)[nu - 1] == psi_of(expected)

    @given(segmented_sequences(), st.integers(1, 8), st.booleans())
    def test_profile_matches_brute_force(self, s, max_nu, respect):
        assert_matches_oracle(s, max_nu, respect)

    @pytest.mark.parametrize("max_nu", range(1, 9))
    @pytest.mark.parametrize("respect", [False, True])
    def test_every_max_nu_matches_brute_force(self, max_nu, respect):
        rng = np.random.default_rng(100 + max_nu)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(max_nu, 300))
            cuts = rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 6))), replace=False)
            s = seq(rng.integers(0, 2, size=n), tuple(sorted(cuts.tolist())))
            expected = oracle_profile(s, max_nu, respect)
            if expected is not None:
                assert_same_profile(psi_profile(s, max_nu, respect), expected)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("max_nu", range(1, 9))
    def test_length_exactly_max_nu(self, max_nu):
        # The size-max_nu level holds one window, every smaller level more.
        rng = np.random.default_rng(200 + max_nu)
        for bits in ([0] * max_nu, [1] * max_nu, rng.integers(0, 2, size=max_nu).tolist()):
            for respect in (False, True):
                s = seq(bits)
                assert_same_profile(psi_profile(s, max_nu, respect), oracle_profile(s, max_nu, respect))
            # One window: W = 1 and sum_i n_i**2 = 1.
            assert psi_profile(seq(bits), max_nu)[max_nu - 1] == 2**max_nu - 1

    # Only the last MAX_WINDOW - 1 starts of a segment can lack room, so the
    # cases below put segment ends near each other and near the array ends.
    @pytest.mark.parametrize("max_nu", range(1, MAX_WINDOW + 1))
    @pytest.mark.parametrize("respect", [False, True])
    def test_unsegmented_lengths_up_to_one_past_the_window(self, max_nu, respect):
        rng = np.random.default_rng(300 + max_nu)
        for n in range(max_nu, MAX_WINDOW + 2):
            for bits in ([0] * n, [1] * n, *rng.integers(0, 2, size=(3, n)).tolist()):
                assert_matches_oracle(seq(bits), max_nu, respect)

    @pytest.mark.parametrize("max_nu", range(1, MAX_WINDOW + 1))
    @pytest.mark.parametrize("respect", [False, True])
    def test_segments_shorter_than_the_tail(self, max_nu, respect):
        # Short segments only, or with one segment long enough for max_nu
        # placed first, inside or last.  A segment end's tail then reaches
        # back across earlier segments and, near the start, before bit 0.
        rng = np.random.default_rng(400 + max_nu)
        for case in range(60):
            sizes = rng.integers(1, MAX_WINDOW - 1, size=int(rng.integers(1, 10))).tolist()
            if case % 4:
                sizes.insert([0, len(sizes) // 2, len(sizes)][case % 4 - 1], int(rng.integers(max_nu, MAX_WINDOW + 2)))
            bits = rng.integers(0, 2, size=sum(sizes))
            assert_matches_oracle(seq(bits, tuple(np.cumsum(sizes[:-1]).tolist())), max_nu, respect)

    @given(segmented_sequences(), st.integers(1, 8), st.booleans())
    def test_has_every_window_matches_brute_force(self, s, max_nu, respect):
        assert_predicate_matches(s, max_nu, respect)

    # The edges that the 2-D tail index relies on: segments shorter than
    # max_nu - 1, whose tails reach back across earlier ends; a short first
    # segment, whose tails fall below bit 0 and wrap within their level; and
    # n = max_nu.  Each case maps max_nu to its segment lengths.
    @pytest.mark.parametrize("max_nu", range(1, MAX_WINDOW + 1))
    @pytest.mark.parametrize("respect", [False, True])
    @pytest.mark.parametrize(
        "lengths",
        [
            pytest.param(lambda m: [max(1, m - 2)] * 4, id="short-segments"),
            pytest.param(lambda m: [max(1, m - 2), m + 1], id="short-first-then-long"),
            pytest.param(lambda m: [1, 1, m, max(1, m - 2)], id="short-around-long"),
            pytest.param(lambda m: [m], id="n-is-max-nu"),
            pytest.param(lambda m: [1, m - 1] if m > 1 else [1], id="n-is-max-nu-split"),
        ],
    )
    def test_has_every_window_at_tail_edges(self, max_nu, respect, lengths):
        lengths = lengths(max_nu)
        rng = np.random.default_rng(500 + max_nu)
        bounds = tuple(np.cumsum(lengths[:-1]).tolist())
        for bits in ([0] * sum(lengths), [1] * sum(lengths), *rng.integers(0, 2, size=(3, sum(lengths))).tolist()):
            assert_predicate_matches(seq(bits, bounds), max_nu, respect)
            assert_matches_oracle(seq(bits, bounds), max_nu, respect)

    @given(segmented_sequences(), st.integers(1, 8))
    def test_ignore_mode_equals_unsegmented(self, s, max_nu):
        if len(s) < max_nu:
            return
        flat = seq(s.bits)
        assert_same_profile(psi_profile(s, max_nu, False), psi_profile(flat, max_nu, False))
        for nu in range(1, max_nu + 1):
            assert psi_profile(s, nu).tolist() == psi_profile(flat, nu).tolist()


class TestBinarySequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seq([])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            seq([0, 1, 2])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            seq([0, 1, 0, 1], bounds=(2, 2))
        with pytest.raises(ValueError):
            seq([0, 1, 0, 1], bounds=(4,))
        with pytest.raises(ValueError):
            seq([0, 1, 0, 1], bounds=(0,))

    def test_bits_are_immutable(self):
        s = seq([0, 1, 0])
        with pytest.raises(ValueError):
            s.bits[0] = 1

    @pytest.mark.parametrize(
        "bits",
        [np.array([0, 1, 1], dtype=np.uint8), np.array([False, True, True]), [0, 1, 1]],
        ids=["uint8", "bool", "list"],
    )
    def test_bits_do_not_follow_the_callers_input(self, bits):
        s = BinarySequence(bits)
        bits[0] = 1
        assert s.bits.tolist() == [0, 1, 1]
        assert s.bits.dtype == np.uint8

    def test_segments_split(self):
        s = seq([0, 1, 0, 1, 1, 1], bounds=(2, 5))
        parts = np.split(s.bits, list(s.segment_bounds))
        assert [p.tolist() for p in parts] == [[0, 1], [0, 1, 1], [1]]
        assert s.segment_lengths().tolist() == [2, 3, 1]


class TestCounting:
    def test_hand_enumeration(self):
        # patterns 00, 01, 10, 11 occur 0, 2, 1, 0 times in 3 windows
        assert psi_profile(seq([0, 1, 0, 1]), 2)[1] == psi_of([0, 2, 1, 0])

    def test_constant_sequence(self):
        assert psi_profile(seq([0] * 5), 3)[2] == psi_of([3, 0, 0, 0, 0, 0, 0, 0])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(4, 65))
            bits = rng.integers(0, 2, size=n)
            for nu in range(1, 5):
                assert psi_profile(seq(bits), nu)[nu - 1] == psi_of(brute_force_counts(bits, nu))

    def test_counts_sum_to_windows(self):
        # psi2 depends on the window total W, here n - nu + 1 at every size.
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(8, 200))
            s = seq(rng.integers(0, 2, size=n))
            profile = psi_profile(s, 8)
            for nu in range(1, 9):
                counts = brute_force_counts(s.bits, nu)
                w = n - nu + 1
                assert profile[nu - 1] == (2**nu * int(counts @ counts)) / w - w

    def test_boundary_respecting(self):
        s = seq([0, 1, 0, 1, 0, 1], bounds=(4,))
        flat = psi_profile(s, 2, respect_boundaries=False)
        split = psi_profile(s, 2, respect_boundaries=True)
        assert flat[1] == psi_of([0, 3, 2, 0])
        assert split[1] == psi_of([0, 3, 1, 0])  # the straddling window is gone

    def test_boundary_mode_skips_short_segments(self):
        # The one-bit segment holds no size-3 window; 010 and 101 are left.
        s = seq([0, 1, 0, 1, 1], bounds=(4,))
        assert psi_profile(s, 3, respect_boundaries=True)[2] == psi_of([0, 0, 1, 0, 0, 1, 0, 0])

    def test_window_size_errors(self):
        s = seq([0, 1, 0])
        with pytest.raises(ValueError):
            psi_profile(s, 0)
        with pytest.raises(ValueError):
            psi_profile(s, 9)
        with pytest.raises(ValueError):
            psi_profile(s, 4)


class TestPsiSquare:
    def test_balanced_monobit_is_zero(self):
        assert psi_profile(seq([0, 1, 1, 0]), 1)[0] == 0.0

    def test_constant_eight_bits(self):
        assert psi_profile(seq([0] * 8), 1)[0] == 8.0

    def test_alternating_window_two(self):
        value = psi_profile(seq([0, 1] * 4), 2)[1]
        # windows {01: 4, 10: 3}, lam = 7/4
        expected = (2.25**2 + 1.25**2 + 2 * 1.75**2) / 1.75
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(51.0 / 7.0, abs=1e-12)

    def test_zero_windows_rejected(self):
        # No segment holds a size-2 window.
        with pytest.raises(ValueError, match="pattern counts cover zero windows"):
            psi_profile(seq([0, 1, 1, 0], bounds=(1, 2, 3)), 2, respect_boundaries=True)


# Finite psi2 values: negatives, subnormals and magnitudes near 1e300,
# bounded so that no second difference overflows.  Values of one
# magnitude make the rounding depend on the order of the operations.
FINITE_PSI = (
    st.floats(-1e4, 1e4)
    | st.floats(-1e300, 1e300)
    | st.sampled_from([5e-324, -2.5e-310, 0.0, -0.0, 1e300, -9.9e299])
)


class TestPsiProfile:
    """``psi_profile`` rows and their second differences."""

    def test_differences_are_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            profile = psi_profile(seq(rng.integers(0, 2, size=120)), max_nu=8)
            d2 = second_differences(profile)
            for nu in range(3, 9):
                assert d2[nu - 3] == d2_of(profile, nu)

    @given(
        st.integers(3, 8).flatmap(
            lambda m: st.lists(st.lists(FINITE_PSI, min_size=m, max_size=m), min_size=1, max_size=6)
        )
    )
    def test_second_differences_match_scalar_formula(self, rows):
        # Bit for bit, for a matrix and for each of its rows; int64 views
        # tell -0.0 from 0.0.
        matrix = np.array(rows)
        expected = np.array([[d2_of(row, nu) for nu in range(3, len(row) + 1)] for row in rows])
        assert np.array_equal(second_differences(matrix).view(np.int64), expected.view(np.int64))
        for row, want in zip(matrix, expected):
            assert np.array_equal(second_differences(row).view(np.int64), want.view(np.int64))

    def test_dof_map(self):
        # A one-sequence report assesses each second difference at 2**(nu - 2).
        report = summarize_stream([psi_profile(seq([0, 1] * 30), max_nu=8)])
        assert {nu: a.dof for nu, a in report.combined.items()} == {3: 2, 4: 4, 5: 8, 6: 16, 7: 32, 8: 64}

    def test_constant_profile_has_zero_d2(self):
        assert second_differences(np.array([5.0, 5.0, 5.0, 5.0])).tolist() == [0.0, 0.0]

    def test_reference_year_rows(self):
        # Second differences recomputed from published psi-square values
        # for the 2001 and 2002 Nasdaq monthly year arrays.
        psi_2001 = np.array([0.0, 3.19, 62.97, 179.27, 337.94, 533.66, 982.93, 1562.51])
        d2_2001 = [56.58, 56.53, 42.37, 37.05, 253.54, 130.32]
        for got, expected in zip(second_differences(psi_2001), d2_2001, strict=True):
            assert got == pytest.approx(expected, abs=0.02)

        psi_2002 = np.array([3.96e-5, 14.73, 33.69, 70.20, 173.48, 332.81, 646.53, 1044.54])
        d2_2002 = [4.24, 17.53, 66.78, 56.04, 154.39, 84.29]
        for got, expected in zip(second_differences(psi_2002), d2_2002, strict=True):
            assert got == pytest.approx(expected, abs=0.0201)

    def test_too_short_sequence(self):
        with pytest.raises(ValueError):
            psi_profile(seq([0, 1, 0]), max_nu=8)


class TestInvariances:
    def test_complement_preserves_profile_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(8, 128))
            s = seq(rng.integers(0, 2, size=n))
            assert_same_profile(psi_profile(s, max_nu=8), psi_profile(flip(s), max_nu=8))

    def test_reversal_preserves_profile_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(8, 128))
            bits = rng.integers(0, 2, size=n)
            assert_same_profile(psi_profile(seq(bits), max_nu=8), psi_profile(seq(bits[::-1]), max_nu=8))


class TestNullDistribution:
    def test_second_difference_moments_match_chi_square(self):
        # 10,000 length-400 sequences from the PCG baseline: the sample
        # mean of each second difference must sit within 4 standard
        # errors of its degrees of freedom and the sample variance within
        # 10% of twice the degrees of freedom.  Sequence j is the head of
        # PCG64 stream j from seed 2024.
        n_seqs, length = 10_000, 400
        stream = shape_synthetic(SyntheticSpec.firm_like(n_seqs, length), master_seed=2024)
        d2 = second_differences(np.vstack([psi_profile(s, max_nu=8) for s in stream.sequences]))
        xi = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        mean = d2.mean(axis=0)
        var = d2.var(axis=0, ddof=1)
        se = np.sqrt(var / n_seqs)
        assert np.all(np.abs(mean - xi) < 4.0 * se)
        assert np.all(np.abs(var / (2.0 * xi) - 1.0) < 0.10)
