import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mambatab.metrics import EvalResult, UndefinedMetricError, accuracy, aggregate, auroc, evaluate
from mambatab.tensor import _sigmoid

from helpers import pairwise_auroc

# Few distinct values, so most draws have long runs of ties; -0.0 ties with 0.0.
_tied_values = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.5, -1e308, 1e308, 5e-324,
                                -np.inf, np.inf])


class TestAuroc:
    def test_perfect_ranking(self):
        labels = np.array([1, 0, 1, 0, 1])
        assert auroc(labels.astype(float), labels) == 1.0

    def test_all_tied_scores(self):
        assert auroc(np.full(6, 0.3), [1, 0, 1, 0, 1, 0]) == 0.5

    def test_pair_count_example(self):
        assert auroc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.9], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_tied_values | st.floats(allow_nan=False), st.integers(0, 1)),
                    min_size=2, max_size=60))
    @example([(0.0, 1), (-0.0, 0), (1.0, 0), (-0.0, 1)])    # signed zeros tie
    @example([(3.0, 1), (3.0, 0), (3.0, 1), (3.0, 0), (3.0, 0)])
    def test_equals_pairwise_count_with_heavy_ties(self, rows):
        scores, labels = (np.array(col) for col in zip(*rows))
        assume(0 < labels.sum() < labels.size)
        assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            auroc([0.1, 0.9, 0.5], [1, 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=m), 1)  # coarse grid forces ties
            assert abs(auroc(scores, labels) - pairwise_auroc(scores, labels)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=m)
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        perm = rng.permutation(40)
        assert auroc(scores[perm], labels[perm]) == pytest.approx(
            auroc(scores, labels), abs=1e-15)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = np.round(rng.normal(size=50), 1)
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0)


class TestAccuracyAndAggregate:
    def test_accuracy_at_half(self):
        assert accuracy([0.9, 0.2, 0.7, 0.4], [1, 0, 0, 0]) == pytest.approx(0.75)

    def test_no_results_rejected(self):
        with pytest.raises(ValueError, match="zero results"):
            aggregate([])

    def test_single_result(self):
        mean, std = aggregate([EvalResult(0.8, 0.7, 5, 5, 0)])
        assert mean == 0.8 and std == 0.0

    def test_two_results(self):
        results = [EvalResult(0.7, 0.6, 5, 5, 0), EvalResult(0.9, 0.8, 5, 5, 1)]
        mean, std = aggregate(results)
        assert mean == pytest.approx(0.8)
        assert std == pytest.approx(np.std([0.7, 0.9], ddof=1))

    def test_identical_values_zero_std(self):
        results = [EvalResult(0.77, 0.7, 5, 5, s) for s in range(10)]
        assert aggregate(results) == (pytest.approx(0.77), 0.0)

    def test_evaluate_ranks_logits_and_thresholds_probabilities(self):
        # Above a logit of about 36.7 the float64 sigmoid is exactly 1.0, so
        # probabilities tie the rows at 38 and 40 and score 0.625, not 0.75.
        logits = np.array([38.0, 40.0, -3.0, 0.2])
        labels = np.array([0, 1, 0, 1])
        r = evaluate(logits, labels)
        assert r.auroc == auroc(logits, labels) == 0.75
        assert auroc(_sigmoid(logits), labels) == 0.625
        assert r.accuracy == 0.75

    def test_evaluate_counts(self):
        r = evaluate([0.9, 0.1, 0.8], [1, 0, 1], seed=3)
        assert (r.n_pos, r.n_neg, r.seed) == (2, 1, 3)
        assert r.auroc == 1.0
