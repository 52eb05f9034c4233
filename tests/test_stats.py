import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import core, stats
from qtypicality import (
    ExperimentSpec,
    ResourceLimitError,
    SSet,
    ValidationError,
    atypical_region,
    born_frequency_report,
    build_measurement_chain,
    deviation,
    exclusion_measure,
    occupations,
    typical_region,
    typical_set_bound,
    typical_set_complement_mass,
)


def brute_force_mass(spec):
    """Direct enumeration over every outcome sequence; the slow oracle."""
    mass = 0.0
    for seq in itertools.product(range(spec.n), repeat=spec.N):
        if deviation(seq, spec.probs) >= spec.epsilon:
            weight = 1.0
            for s in seq:
                weight *= spec.probs[s]
            mass += weight
    return mass


def documented_deviation(counts, N, probs):
    """The deviation by the package's documented arithmetic: e = k/N - p,
    added as e * e from left to right. ``e ** 2`` is not always ``e * e``,
    and the built-in ``sum`` compensates from Python 3.12 on, so either can
    put a count vector on the other side of a cutoff that equals a deviation."""
    dev = 0.0
    for k, p in zip(counts, probs):
        e = k / N - p
        dev = dev + e * e
    return dev


def region_oracle(spec):
    """Typical and atypical labels, classified one sequence at a time."""
    typical, atypical = set(), set()
    for seq in itertools.product(range(spec.n), repeat=spec.N):
        counts = [seq.count(s) for s in range(spec.n)]
        dev = documented_deviation(counts, spec.N, spec.probs)
        (atypical if dev >= spec.epsilon else typical).add(",".join(map(str, seq)))
    return frozenset(typical), frozenset(atypical)


def lex_compositions(total, parts):
    """Count vectors of ``parts`` entries summing to ``total``, in
    lexicographic order, enumerated by itertools."""
    return [
        head + (total - sum(head),)
        for head in itertools.product(range(total + 1), repeat=parts - 1)
        if sum(head) <= total
    ]


def recursive_compositions(total, parts):
    """The same count vectors, one tuple at a time, as the loop visits them."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def loop_mass(spec):
    """The tail sum as one Python loop over the count vectors, in
    lexicographic order, adding one exp at a time; the vectorised sum must
    give the same float."""
    log_fact = [math.lgamma(k + 1) for k in range(spec.N + 1)]
    log_p = [math.log(p) if p > 0.0 else None for p in spec.probs]
    mass = 0.0
    for counts in recursive_compositions(spec.N, spec.n):
        if not stats._atypical_counts(counts, spec):
            continue
        log_weight = log_fact[spec.N]
        for k, lp in zip(counts, log_p):
            if k == 0:
                continue
            if lp is None:
                break
            log_weight += k * lp - log_fact[k]
        else:
            mass += math.exp(log_weight)
    return mass


def chain_label_oracle(spec):
    """Each basis index's label, decoded digit by digit."""
    labels = []
    for index in range(spec.n**spec.N):
        digits = []
        for _ in range(spec.N):
            index, digit = divmod(index, spec.n)
            digits.append(str(digit))
        labels.append(",".join(reversed(digits)))
    return labels


@st.composite
def tail_specs(draw):
    """Specs with zero probabilities and cutoffs on, or one ulp from, the
    deviation of some count vector."""
    n = draw(st.integers(1, 4))
    big_n = draw(st.integers(1, (60, 60, 60, 40)[n - 1]))
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n)
        .filter(lambda w: sum(w) > 0.0)
    )
    probs = tuple(w / sum(weights) for w in weights)
    counts = draw(st.sampled_from(list(recursive_compositions(big_n, n))))
    dev = stats._count_deviation(counts, big_n, probs)
    eps = draw(
        st.sampled_from([dev, math.nextafter(dev, math.inf), math.nextafter(dev, 0.0)])
        if dev > 0.0
        else st.floats(1e-3, 2.0)
    )
    return ExperimentSpec(n, probs, big_n, eps)


@st.composite
def region_specs(draw):
    """Specs with n**N <= 4096, zero probabilities, and cutoffs on, or one
    float above, the deviation of some sequence."""
    n = draw(st.integers(1, 4))
    big_n = draw(st.integers(1, (12, 12, 7, 6)[n - 1]))
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n)
        .filter(lambda w: sum(w) > 0.0)
    )
    probs = tuple(w / sum(weights) for w in weights)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=big_n, max_size=big_n))
    dev = deviation(seq, probs)
    eps = draw(
        st.sampled_from([dev, math.nextafter(dev, math.inf)])
        if dev > 0.0
        else st.floats(1e-3, 2.0)
    )
    return ExperimentSpec(n, probs, big_n, eps)


def multinomial(counts):
    out = math.factorial(sum(counts))
    for k in counts:
        out //= math.factorial(k)
    return out


def exact_integer_mass(spec):
    """Multinomial coefficients times the probabilities as exact binary
    fractions, summed as one integer over a common power-of-two denominator.

    Counts are deemed atypical by the same float deviation test as the
    package, so only the weights and their sum differ between the two.
    """
    probs = [Fraction(p) for p in spec.probs]
    denom = max(p.denominator for p in probs)  # floats are dyadic
    scaled = [int(p * denom) for p in probs]
    total = 0
    for counts in itertools.product(range(spec.N + 1), repeat=spec.n - 1):
        last = spec.N - sum(counts)
        if last < 0:
            continue
        counts = counts + (last,)
        if documented_deviation(counts, spec.N, spec.probs) < spec.epsilon:
            continue
        weight = multinomial(counts)
        for k, a in zip(counts, scaled):
            weight *= a**k
        total += weight
    return float(Fraction(total, denom**spec.N))


class TestSpecValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(2, (0.5, 0.4), 4, 0.1)

    def test_unit_sum_is_held_to_the_norm_contract(self):
        # sqrt(p) is an initial vector, held to psi0's NORM_TOL.
        assert stats.NORM_TOL is core.NORM_TOL
        ExperimentSpec(2, (0.5, 0.5 + 0.9e-12), 4, 0.1)
        with pytest.raises(ValidationError, match="probabilities sum to"):
            ExperimentSpec(2, (0.5, 0.5 + 1.1e-12), 4, 0.1)

    def test_negative_prob(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(2, (1.2, -0.2), 4, 0.1)

    @pytest.mark.parametrize(
        "n, probs, big_n",
        [
            (2.9, (0.4, 0.6), 12),
            (2, (0.4, 0.6), 12.7),
            (True, (1.0,), 12),
            (2, (0.4, 0.6), True),
            (2, (0.4, 0.6), math.nan),
            (2, (0.4, 0.6), math.inf),
            (math.nan, (0.4, 0.6), 12),
        ],
    )
    def test_non_integral_sizes_rejected(self, n, probs, big_n):
        # (2.9, ..., 12.7) once became n=2, N=12 without a word.
        with pytest.raises(ValidationError, match="is not an integer"):
            ExperimentSpec(n, probs, big_n, 0.05)

    def test_integral_float_sizes_accepted(self):
        spec = ExperimentSpec(2.0, (0.4, 0.6), np.float64(12.0), 0.05)
        assert (spec.n, spec.N) == (2, 12)
        assert type(spec.n) is int and type(spec.N) is int

    def test_bad_repetitions_and_cutoff(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(2, (0.5, 0.5), 0, 0.1)
        with pytest.raises(ValidationError):
            ExperimentSpec(2, (0.5, 0.5), 4, 0.0)

    @pytest.mark.parametrize(
        "probs, eps",
        [
            ((math.nan, math.nan), 0.1),
            ((math.nan, 1.0), 0.1),
            ((math.inf, -math.inf), 0.1),
            ((0.5, 0.5), math.nan),
            ((0.5, 0.5), math.inf),
        ],
    )
    def test_non_finite_probs_and_cutoff(self, probs, eps):
        with pytest.raises(ValidationError, match="finite"):
            ExperimentSpec(2, probs, 10, eps)

    @pytest.mark.parametrize(
        "big_n, eps, finite",
        [(1, 1e-320, False), (4, 1e-309, False), (1000, 1e-307, True), (2**53, 5e-324, True)],
    )
    def test_cutoff_must_keep_the_bound_finite(self, big_n, eps, finite):
        if finite:
            assert math.isfinite(typical_set_bound(ExperimentSpec(1, (1.0,), big_n, eps)))
        else:
            with pytest.raises(ValidationError, match=r"1/\(eps\*N\)"):
                ExperimentSpec(1, (1.0,), big_n, eps)


class TestFrequencyAndDeviation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            deviation([], (0.5, 0.5))

    def test_exact_frequencies_give_zero(self):
        assert deviation([0, 1, 0, 1], (0.5, 0.5)) == 0.0

    def test_all_zeros_half_half(self):
        assert deviation([0, 0, 0, 0, 0], (0.5, 0.5)) == pytest.approx(0.5)

    def test_three_one_split(self):
        assert deviation([0, 0, 0, 1], (0.5, 0.5)) == pytest.approx(0.125)

    def test_outcome_out_of_range(self):
        with pytest.raises(ValidationError):
            deviation([0, 2], (0.5, 0.5))

    @pytest.mark.parametrize("outcome", [0.5, True, math.nan])
    def test_non_integral_outcome_rejected(self, outcome):
        # 0.5 was once dropped from the counts: [0.5, 1] deviated by 0.25.
        with pytest.raises(ValidationError, match="outcome .* is not an integer"):
            deviation([outcome, 1], (0.5, 0.5))

    def test_integral_float_outcome_counts(self):
        assert deviation([1.0, 0], (0.5, 0.5)) == deviation([1, 0], (0.5, 0.5)) == 0.0


class TestComplementMass:
    def test_matches_brute_force_on_small_specs(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            p = rng.dirichlet(np.ones(n))
            spec = ExperimentSpec(n, p, int(rng.integers(1, 8)), float(rng.uniform(0.02, 0.5)))
            assert typical_set_complement_mass(spec) == pytest.approx(
                brute_force_mass(spec), abs=1e-12
            )

    @pytest.mark.parametrize(
        "probs, big_n, eps",
        [
            ((0.4, 0.6), 300, 0.02),
            ((0.375, 0.625), 1500, 0.02),
            ((0.2, 0.3, 0.5), 60, 0.03),
            ((0.0, 0.3, 0.7), 40, 0.05),
            ((1.0, 0.0), 25, 0.1),
        ],
    )
    def test_log_space_sum_matches_exact_integers(self, probs, big_n, eps):
        spec = ExperimentSpec(len(probs), probs, big_n, eps)
        assert typical_set_complement_mass(spec) == pytest.approx(
            exact_integer_mass(spec), rel=1e-9, abs=1e-12
        )

    def test_frozen_point_value(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 16, 0.125)
        assert typical_set_complement_mass(spec) == pytest.approx(
            5034 / 65536, abs=1e-12
        )
        assert typical_set_bound(spec) == pytest.approx(0.5)

    def test_cutoff_beyond_max_deviation(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 8, 3.0)
        assert typical_set_complement_mass(spec) == 0.0

    @pytest.mark.parametrize("probs, big_n, eps", [
        ((0.0, 1.0000000000001), 1, 1e-20),  # sum_s p_s (1 - p_s) < 0
        ((0.0, 1.0, 9e-13), 5, 0.07999999999963998),  # 4.5e-12 against 2.25e-12
        ((1.0, 9e-13), 1, 1.9999999999982),  # 9e-13 against 4.5e-13
    ])
    def test_markov_check_takes_the_unit_sum_defect(self, probs, big_n, eps):
        """Probabilities that sum to 1 + d within the input tolerance weigh
        sequences past the plain Markov bound; the check allows it."""
        spec = ExperimentSpec(len(probs), probs, big_n, eps)
        mass = typical_set_complement_mass(spec)
        assert mass > sum(p * (1.0 - p) for p in probs) / (eps * big_n)

    def test_markov_check_catches_a_wrong_mass(self, monkeypatch):
        # Every count vector counted as atypical: mass 1 against a bound of 0.25.
        monkeypatch.setattr(stats, "_atypical_counts", lambda counts, spec: counts[0] >= 0)
        with pytest.raises(ArithmeticError, match="exceeds its Markov bound"):
            typical_set_complement_mass(ExperimentSpec(2, (0.5, 0.5), 16, 0.125))

    def test_single_trial_everything_atypical(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 1, 0.4)
        assert typical_set_complement_mass(spec) == pytest.approx(1.0)
        assert typical_set_bound(spec) == pytest.approx(2.5)

    def test_bound_holds_and_mass_shrinks_with_epsilon(self):
        masses = []
        for eps in (0.02, 0.05, 0.1, 0.25, 0.5):
            spec = ExperimentSpec(2, (0.5, 0.5), 12, eps)
            mass = typical_set_complement_mass(spec)
            assert mass < typical_set_bound(spec)
            masses.append(mass)
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    @settings(max_examples=150, deadline=None)
    @given(tail_specs())
    def test_equals_the_loop_bit_for_bit(self, spec):
        assert typical_set_complement_mass(spec) == loop_mass(spec)

    @pytest.mark.parametrize(
        "probs, big_n, eps",
        [
            ((0.4, 0.6), 2000, 0.02),
            ((0.2, 0.3, 0.5), 150, 0.03),
            ((0.0, 0.3, 0.7), 40, 0.05),
            ((0.1, 0.2, 0.3, 0.4), 30, 0.02),
            ((0.1, 0.1, 0.1, 0.2, 0.2, 0.3), 12, 0.05),
            ((1.0,), 7, 0.1),
        ],
    )
    def test_equals_the_loop_on_fixed_specs(self, probs, big_n, eps):
        # On the second to fifth, math.fsum of the same terms differs from the
        # loop's sum in the last digits, so a compensated sum fails here.
        spec = ExperimentSpec(len(probs), probs, big_n, eps)
        assert typical_set_complement_mass(spec) == loop_mass(spec)

    def test_skipped_terms_add_exactly_zero(self):
        assert math.exp(stats._EXP_UNDERFLOW) == 0.0

    def test_memory_is_bounded_by_the_blocks(self):
        # 501,501 count vectors, only the far corners atypical.
        spec = ExperimentSpec(3, (0.2, 0.3, 0.5), 1000, 0.5)
        tracemalloc.start()
        try:
            typical_set_complement_mass(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_resource_guard(self):
        spec = ExperimentSpec(64, (1 / 64,) * 64, 64, 0.1)
        with pytest.raises(ResourceLimitError):
            typical_set_complement_mass(spec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_guard_at_a_400_digit_repetition_count(self, n):
        # The guard must not form n**N: that power alone would not fit in memory.
        spec = ExperimentSpec(n, (1 / n,) * n, 10**400, 0.1)
        with pytest.raises(ResourceLimitError):
            typical_set_complement_mass(spec)

    def test_lgamma_table_is_guarded_for_one_outcome(self, monkeypatch):
        # One outcome has a single count vector, but the table has N + 1 entries.
        monkeypatch.setattr(stats, "COMPOSITION_LIMIT", 50)
        assert typical_set_complement_mass(ExperimentSpec(1, (1.0,), 49, 0.1)) == 0.0
        with pytest.raises(ResourceLimitError, match="lgamma table of 51 entries"):
            typical_set_complement_mass(ExperimentSpec(1, (1.0,), 50, 0.1))
        # Two outcomes have N + 1 count vectors: the first guard, as before.
        assert typical_set_complement_mass(ExperimentSpec(2, (0.5, 0.5), 49, 3.0)) == 0.0
        with pytest.raises(ResourceLimitError, match="51 count vectors"):
            typical_set_complement_mass(ExperimentSpec(2, (0.5, 0.5), 50, 0.1))


class TestCompositionBlocks:
    @pytest.mark.parametrize(
        "total, parts, entries",
        [
            (800, 3, None),  # the module's block size: several blocks
            (60, 4, None),
            (9, 4, 12),  # three rows a block: subtrees split twice over
            (7, 3, 3),  # one row a block
            (12, 2, 10),
            (5, 1, 1),
            (0, 3, 1),
        ],
    )
    def test_blocks_are_the_lexicographic_compositions(self, monkeypatch, total, parts, entries):
        if entries is not None:
            monkeypatch.setattr(stats, "_BLOCK_ENTRIES", entries)
        blocks = list(stats._composition_blocks(total, parts))
        max_rows = max(1, stats._BLOCK_ENTRIES // parts)
        assert all(b.dtype == np.int64 and b.shape[1] == parts for b in blocks)
        assert all(0 < b.shape[0] <= max_rows for b in blocks)
        rows = [tuple(row) for b in blocks for row in b.tolist()]
        assert rows == lex_compositions(total, parts)
        if entries is None and total == 800:
            assert len(blocks) > 1


class TestMeasurementChain:
    def test_single_measurement_occupations(self):
        spec = ExperimentSpec(2, (0.36, 0.64), 1, 0.1)
        structure = build_measurement_chain(spec)
        occ = occupations(structure, 1)
        assert occ["0"] == pytest.approx(0.36, abs=1e-12)
        assert occ["1"] == pytest.approx(0.64, abs=1e-12)

    def test_sequence_occupations_are_products(self, rng):
        p = rng.dirichlet(np.ones(2))
        spec = ExperimentSpec(2, p, 4, 0.1)
        structure = build_measurement_chain(spec)
        occ = occupations(structure, 4)
        for seq in itertools.product(range(2), repeat=4):
            expected = math.prod(p[s] for s in seq)
            assert occ[",".join(map(str, seq))] == pytest.approx(expected, abs=1e-10)

    def test_exclusion_matches_combinatorial_mass(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 10, 0.1)
        structure = build_measurement_chain(spec)
        excl = exclusion_measure(structure, SSet(10, typical_region(spec)))
        assert excl == pytest.approx(typical_set_complement_mass(spec), abs=1e-10)

    def test_typical_and_atypical_regions_partition(self):
        spec = ExperimentSpec(2, (0.3, 0.7), 6, 0.1)
        assert len(typical_region(spec)) + len(atypical_region(spec)) == 2**6
        assert not (typical_region(spec) & atypical_region(spec))
        # One count vector sits exactly on the cutoff: (3, 1) deviates by
        # 0.0625 + 0.0625 = 0.125 and so is atypical.
        on_cutoff = ExperimentSpec(2, (0.5, 0.5), 4, 0.125)
        assert "0,0,0,1" in atypical_region(on_cutoff)
        assert "0,0,1,1" in typical_region(on_cutoff)
        specs = [
            spec,
            on_cutoff,
            ExperimentSpec(2, (0.36, 0.64), 7, 0.05),
            ExperimentSpec(3, (0.2, 0.3, 0.5), 4, 0.08),
            ExperimentSpec(3, (0.0, 0.5, 0.5), 3, 0.2),
            ExperimentSpec(1, (1.0,), 3, 0.1),
            ExperimentSpec(2, (0.5, 0.5), 1, 0.1),
            ExperimentSpec(2, (0.5, 0.5), 5, 3.0),
        ]
        for spec in specs:
            typical, atypical = region_oracle(spec)
            assert typical_region(spec) == typical
            assert atypical_region(spec) == atypical
            assert len(typical) + len(atypical) == spec.n**spec.N

    @pytest.mark.parametrize(
        "probs, big_n, eps",
        [
            ((0.2, 0.3, 0.5), 7, 0.05),
            ((0.2, 0.3, 0.5), 6, 0.02),
            ((0.0, 0.25, 0.75), 6, 0.1),
            ((0.2, 0.3, 0.5), 5, 0.6),
            ((1 / 12,) * 12, 2, 0.5),  # two-character outcome digits
            ((1 / 40,) * 40, 2, 0.5),  # many outcomes, few repetitions
        ],
    )
    def test_regions_match_the_sequence_oracle(self, probs, big_n, eps):
        spec = ExperimentSpec(len(probs), probs, big_n, eps)
        typical, atypical = region_oracle(spec)
        assert typical_region(spec) == typical
        assert atypical_region(spec) == atypical

    @settings(max_examples=200, deadline=None)
    @given(region_specs())
    def test_regions_equal_the_oracle(self, spec):
        typical, atypical = region_oracle(spec)
        assert typical_region(spec) == typical
        assert atypical_region(spec) == atypical

    def test_region_cutoff_is_the_deviation_of_its_sequences(self):
        for seq in [(0, 0, 1, 2, 2, 2), (1, 1, 1, 1, 0, 2), (2, 0, 1, 0, 1, 2)]:
            probs = (0.1, 0.3, 0.6)
            dev = deviation(seq, probs)
            label = ",".join(map(str, seq))
            assert label in atypical_region(ExperimentSpec(3, probs, 6, dev))
            assert label in typical_region(ExperimentSpec(3, probs, 6, math.nextafter(dev, 1.0)))

    @pytest.mark.parametrize(
        "probs, big_n",
        [((1.0,), 4), ((0.5, 0.5), 1), ((0.4, 0.6), 7), ((0.2, 0.3, 0.5), 4),
         ((0.1, 0.2, 0.3, 0.4), 3), ((1 / 12,) * 12, 2)],
    )
    def test_chain_cells_match_the_label_oracle(self, probs, big_n):
        spec = ExperimentSpec(len(probs), probs, big_n, 0.1)
        structure = build_measurement_chain(spec)
        labels = chain_label_oracle(spec)
        assert structure.labels == tuple(labels)
        assert {label: idx.tolist() for label, idx in structure.cells.items()} == {
            label: [index] for index, label in enumerate(labels)
        }
        assert all(not idx.flags.writeable for idx in structure.cells.values())

    def test_single_outcome_trivial(self):
        spec = ExperimentSpec(1, (1.0,), 5, 0.5)
        structure = build_measurement_chain(spec)
        assert occupations(structure, 5) == {"0,0,0,0,0": pytest.approx(1.0)}
        assert typical_set_complement_mass(spec) == 0.0

    def test_dimension_guard(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 21, 0.1)
        with pytest.raises(ResourceLimitError):
            build_measurement_chain(spec)

    @pytest.mark.parametrize("build", [typical_region, atypical_region, build_measurement_chain])
    def test_guard_at_a_huge_repetition_count(self, build):
        # 2**(10**12) would not fit in memory; the guard must not form it.
        with pytest.raises(ResourceLimitError, match="enumeration limit"):
            build(ExperimentSpec(2, (0.5, 0.5), 10**12, 0.1))

    @pytest.mark.parametrize("build", [typical_region, atypical_region, build_measurement_chain])
    @pytest.mark.parametrize("big_n", [70, 10**6])
    def test_one_outcome_has_the_same_length_bound(self, build, big_n):
        # One sequence only, but N steps and a 2N - 1 character label: at
        # N = 70 occupations() would need a 70-dimensional array, and at
        # N = 10**6 the region took 13 s before the bound.
        with pytest.raises(ResourceLimitError, match="enumeration limit"):
            build(ExperimentSpec(1, (1.0,), big_n, 0.1))

    @pytest.mark.parametrize(
        "n, big_n, count",
        [(2, 20, 2**20), (2, 21, None), (1024, 2, 2**20), (1025, 2, None),
         (3, 12, 3**12), (3, 13, None), (1, 20, 1), (1, 21, None), (1, 10**12, None)],
    )
    def test_sequence_count_against_the_limit(self, n, big_n, count):
        spec = ExperimentSpec(n, (1 / n,) * n, big_n, 0.1)
        if count is None:
            with pytest.raises(ResourceLimitError):
                stats._sequence_count(spec)
        else:
            assert stats._sequence_count(spec) == count


class TestBornFrequencyReport:
    def test_half_half(self):
        np.testing.assert_allclose(
            born_frequency_report(ExperimentSpec(2, (0.5, 0.5), 100, 0.1)), [50, 50]
        )

    def test_weighted(self):
        np.testing.assert_allclose(
            born_frequency_report(ExperimentSpec(2, (0.36, 0.64), 25, 0.1)), [9, 16]
        )

    def test_deterministic(self):
        np.testing.assert_allclose(
            born_frequency_report(ExperimentSpec(2, (1.0, 0.0), 7, 0.1)), [7, 0]
        )
