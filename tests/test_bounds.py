"""Bound constants against a high-precision oracle, the sandwich
properties on random models, and the scheduler quantities on hand-worked
examples."""

import fractions
import json
import math

import mpmath
import numpy as np
import pytest

from cclab import bounds, losses
from cclab.bounds import (
    analytic_min_contrastive,
    compute_U,
    constants,
    decomposition_check_trials,
    lemma1_slack,
    lemma1_trials,
    random_distribution,
    ScheduleState,
    theorem1_lower,
    theorem1_upper,
    theorem2_step,
    turning_point,
)
from cclab.core import MixtureWeights
from cclab.losses import _stacked_terms, population_contrastive
from tests.helpers import (
    compute_U_reference,
    gamma_reference,
    random_distribution_reference,
    random_embedding,
    single_negative_beta_prime,
    theorem1_reference,
    trial_terms_reference,
)

mpmath.mp.dps = 50


def mp_constants(k):
    """Closed-form constants evaluated at 50 decimal digits."""
    e2 = mpmath.exp(2)
    alpha = 2 * e2 / (k + e2)
    beta = 2 - alpha + alpha * mpmath.log(alpha / 2)
    beta_prime = -alpha * mpmath.log(1 + k * e2) - 2 * k * e2 / (1 + k * e2)
    return float(alpha), float(beta), float(beta_prime)


class TestConstants:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_match_high_precision(self, k):
        a, b, bp = mp_constants(k)
        c = constants(k)
        assert c.alpha == pytest.approx(a, abs=1e-15)
        assert c.beta == pytest.approx(b, abs=1e-15)
        assert c.beta_prime == pytest.approx(bp, abs=1e-15)

    def test_published_decimals_k1(self):
        c = constants(1)
        assert c.alpha == pytest.approx(1.761594, abs=1e-6)
        # the widely quoted 6-decimal values for beta and beta' are
        # rounded from slightly different points; the closed forms give
        assert c.beta == pytest.approx(0.0148102015638460, abs=1e-12)
        assert c.beta_prime == pytest.approx(-5.5083781103476838, abs=1e-12)

    def test_single_negative_form_agrees(self):
        assert single_negative_beta_prime() == pytest.approx(
            constants(1).beta_prime, abs=1e-12
        )

    def test_signs(self):
        for k in (1, 2, 8):
            c = constants(k)
            assert 0 < c.alpha < 2
            assert c.beta > 0
            assert c.beta_prime < 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            constants(0)


def gammas(weights, lam, k=1):
    """The (upper gamma_t, lower gamma'_t) lists of the Theorem 1 reports."""
    losses = [1.0] * (len(weights) + 1)
    return (theorem1_upper(losses, weights, lam, k).gammas,
            theorem1_lower(losses, weights, lam, k).gammas)


class TestGamma:
    """The denominators as the Theorem 1 evaluators form and report them."""

    W2 = MixtureWeights(task_index=2, weights=np.array([1.0]))

    def test_min_and_max_forms(self):
        w = MixtureWeights(task_index=3, weights=np.array([0.25, 0.75]))
        (_, g), (_, gp) = gammas([self.W2, w], 2.0)
        # scaled weights are (0.5, 1.5); min(1/3, 0.5) and max(1, 1.5)
        assert g == pytest.approx(1.0 / 3.0)
        assert gp == pytest.approx(1.5)
        (_, g_small), (_, gp_small) = gammas([self.W2, w], 0.1)
        assert g_small == pytest.approx(0.025)
        assert gp_small == pytest.approx(1.0)

    def test_task_index_checked(self):
        w = MixtureWeights(task_index=3, weights=np.array([0.5, 0.5]))
        for evaluate in (theorem1_upper, theorem1_lower):
            with pytest.raises(ValueError, match="different task index"):
                evaluate([1.0, 1.0], [w], 1.0)
        with pytest.raises(ValueError, match="different task index"):
            compute_U([1.0], [w], 1.0)  # U_t sums tasks 2..t, so its first weights are task 2's

    def test_negative_lambda_rejected(self):
        # NaN is no coefficient either: it would take gamma = 1/t in the
        # upper bound and gamma' = 1 in the lower one
        weights, losses = uniform_weights(4), [1.0, 1.2, 0.9, 1.1]
        for lam in (-1.0, math.nan, np.float64(math.nan), [1.0, math.nan, 1.0]):
            for evaluate in (theorem1_upper, theorem1_lower):
                with pytest.raises(ValueError, match="non-negative"):
                    evaluate(losses, weights, lam)
            if np.isscalar(lam):
                with pytest.raises(ValueError, match="non-negative"):
                    compute_U(losses[1:], weights, lam)


def random_weights(rng, T):
    """Random mixture weights for tasks 2..T."""
    out = []
    for t in range(2, T + 1):
        w = rng.dirichlet(np.ones(t - 1)) + 0.01
        out.append(MixtureWeights(task_index=t, weights=w / w.sum()))
    return out


class TestEvaluatorsMatchNumpyReference:
    """The cached weight extremes and constants give the same floats as
    numpy min/max over the scaled weights and constants recomputed per
    call, and compute_U the floats of its own walk over the tasks."""

    GRID = np.linspace(0.01, 20.0, 400)

    def test_constants_cached_and_equal_to_recomputed(self):
        for k in (1, 2, 5):
            assert constants(k) is constants(k)
            assert constants(k) == constants.__wrapped__(k)

    def test_gamma(self):
        rng = np.random.default_rng(11)
        weights, losses = random_weights(rng, 6), [1.0] * 6
        for lam in [0.0, *self.GRID, *rng.uniform(0, 50, 20)]:
            want = [gamma_reference(w.task_index, lam, w) for w in weights]
            if lam > 0:  # gamma_t = 0 at lam = 0: the upper bound has no value there
                assert theorem1_upper(losses, weights, lam).gammas == [g for g, _ in want]
            assert theorem1_lower(losses, weights, lam).gammas == [gp for _, gp in want]

    def test_bounds_and_compute_u(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = []
        for T in (2, 3, 5, 6):
            weights = random_weights(rng, T)
            losses = list(rng.uniform(0.1, 3.0, size=T))
            lams = [*self.GRID, *(list(rng.uniform(0.05, 5, T - 1)) for _ in range(3))]
            for k in (1, 2):
                cases.extend((weights, losses, lam, k) for lam in lams)

        def evaluate(upper, lower, U):
            out = []
            for weights, losses, lam, k in cases:
                up = upper(losses, weights, lam, k=k)
                lo = lower(losses, weights, lam, k=k)
                u = U(losses[1:], weights, lam if np.isscalar(lam) else lam[-1], k=k)
                out.append((up.value, up.gammas, up.coefficients, up.eta,
                            lo.value, lo.gammas, lo.coefficients, lo.eta, u.hex()))
            lo0 = [lower(losses, weights, 0.0, k=k).value for weights, losses, _, k in cases]
            return out, lo0

        got = evaluate(theorem1_upper, theorem1_lower, compute_U)
        monkeypatch.setattr(bounds, "constants", constants.__wrapped__)
        monkeypatch.setattr(bounds, "_theorem1_constants", bounds._theorem1_constants.__wrapped__)
        assert got == evaluate(theorem1_upper, theorem1_lower, compute_U)
        assert got == evaluate(*theorem1_reference.values(), compute_U_reference)


class TestLemma1:
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_models_satisfy_sandwich(self, k):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dist = random_distribution(rng, 4, 3)
            f_t = random_embedding(dist, 4, rng)
            f_p = random_embedding(dist, 4, rng)
            up, lo = lemma1_slack(f_t, f_p, dist, k)
            assert up >= -1e-10
            assert lo >= -1e-10

    def test_large_k_sandwich(self):
        # 6^10 ordered negative tuples, 3003 multisets
        rng = np.random.default_rng(10)
        for _ in range(3):
            dist = random_distribution(rng, 6, 3)
            f_t = random_embedding(dist, 4, rng)
            f_p = random_embedding(dist, 4, rng)
            up, lo = lemma1_slack(f_t, f_p, dist, 10)
            assert up >= -1e-10
            assert lo >= -1e-10

    def test_trial_helpers(self):
        up, lo = lemma1_trials(trials=30, k=1, seed=0)
        assert up >= -1e-10 and lo >= -1e-10
        assert decomposition_check_trials(trials=30, k=1, seed=0) < 1e-10

    def test_sabotage_hook_can_fail(self):
        up, _ = lemma1_trials(trials=30, k=1, seed=0, alpha_corruption=-2.0)
        assert up < 0


def same_bytes(got, ref):
    return np.array(got).tobytes() == np.array(ref).tobytes()


class TestStackedTrials:
    """lemma1_trials and decomposition_check_trials draw and evaluate their
    trials in stacked blocks. Every trial's four terms and both results
    must equal the one-trial-at-a-time reference byte for byte."""

    CELLS = [(4, 1, 20), (4, 2, 25), (4, 5, 16), (8, 3, 3), (4, 2, 1)]

    @staticmethod
    def check(monkeypatch, n, k, trials, seed, alpha_corruption=0.0):
        seen = []

        def record(*args):
            seen.append(_stacked_terms(*args))
            return seen[-1]

        monkeypatch.setattr(bounds, "_stacked_terms", record)
        ref_terms, (ref_worst, ref_res) = trial_terms_reference(
            trials, k, seed, support_size=n, alpha_corruption=alpha_corruption
        )
        worst = lemma1_trials(trials, k, seed, support_size=n,
                              alpha_corruption=alpha_corruption)
        assert same_bytes(np.concatenate(seen), ref_terms)
        assert same_bytes(worst, ref_worst)
        seen.clear()
        res = decomposition_check_trials(trials, k, seed, support_size=n)
        assert same_bytes(np.concatenate(seen), ref_terms)
        assert same_bytes(res, ref_res)
        return len(seen)

    @pytest.mark.parametrize("n, k, trials", CELLS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_exact_sandwich_cells(self, monkeypatch, n, k, trials, seed):
        assert self.check(monkeypatch, n, k, trials, seed) == 1  # one stacked call

    @pytest.mark.parametrize("alpha_corruption", [-2.0, 0.3])
    def test_alpha_corruption(self, monkeypatch, alpha_corruption):
        self.check(monkeypatch, 4, 2, 25, 5, alpha_corruption)

    @pytest.mark.parametrize("rows", [40, 9, 5])
    def test_small_blocks(self, monkeypatch, rows):
        # k = 2 on 4 points: M = 10 multisets and 8, 10 or 16 pairs a trial.
        # 40 rows pack several trials a block; 9 split the longer trials
        # and join their tails to the next; 5 split every trial. The draw
        # then works in blocks of 10, 2 and 1 trials.
        for module in (losses, bounds):
            monkeypatch.setattr(module, "_BLOCK", rows * 10)
        calls = self.check(monkeypatch, 4, 2, 25, 3)
        assert calls == -(-25 // max(1, rows // 4))

    def test_large_k_splits_trials(self, monkeypatch):
        monkeypatch.setattr(losses, "_BLOCK", 7 * 120)  # M = 120 at (8, 3)
        self.check(monkeypatch, 8, 3, 4, 2)

    def test_huge_trial_count_builds_no_block_list(self, monkeypatch):
        # 2**62 trials walk their blocks lazily: the first block is drawn and
        # evaluated at once, before anything sized by the trial count
        class FirstBlock(Exception):
            pass

        def first_block(emb_t, *args):
            raise FirstBlock(emb_t.shape[0])

        monkeypatch.setattr(bounds, "_stacked_terms", first_block)
        with pytest.raises(FirstBlock) as info:
            lemma1_trials(2**62, 1, support_size=4)
        assert info.value.args == (losses._BLOCK // (4 * 4),)  # n * C(n, 1) entries a trial

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 16])
    def test_random_distribution_draws_as_dirichlet(self, n):
        # the masses come from unit exponentials over their running sum,
        # which is how rng.dirichlet(ones(n)) draws them
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(5):
            got = random_distribution(rng, n, 3)
            ref = random_distribution_reference(ref_rng, n, 3)
            for field in ("points", "labels", "mass"):
                assert same_bytes(getattr(got, field), getattr(ref, field))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMinContrastive:
    def test_analytic_value(self):
        assert analytic_min_contrastive(1) == pytest.approx(
            math.log1p(math.exp(-2))
        )

    def test_analytic_is_a_lower_bound(self):
        rng = np.random.default_rng(1)
        for k in (1, 3):
            dist = random_distribution(rng, 4, 3)
            emb = random_embedding(dist, 4, rng)
            assert population_contrastive(emb, dist, k) >= analytic_min_contrastive(k)


def uniform_weights(T):
    return [
        MixtureWeights(task_index=t, weights=np.full(t - 1, 1.0 / (t - 1)))
        for t in range(2, T + 1)
    ]


class TestTheorem1:
    def test_two_task_hand_computation(self):
        # T=2, uniform weight 1 on task 1, lam=1: gamma = 1/2, so
        # upper = alpha*L1 + 2*L2 + beta + (1 - 2)*minf
        c = constants(1)
        minf = analytic_min_contrastive(1)
        rep = theorem1_upper([1.0, 2.0], uniform_weights(2), 1.0)
        assert rep.value == pytest.approx(c.alpha + 4.0 + c.beta - minf, abs=1e-12)
        low = theorem1_lower([1.0, 2.0], uniform_weights(2), 1.0)
        # gamma' = max(1, 1) = 1
        assert low.value == pytest.approx(c.alpha + 2.0 + c.beta_prime, abs=1e-12)

    def test_upper_above_lower(self):
        for lam in (0.5, 1.0, 4.0):
            up = theorem1_upper([1.0] * 4, uniform_weights(4), lam).value
            lo = theorem1_lower([1.0] * 4, uniform_weights(4), lam).value
            assert up > lo

    def test_adaptive_lambda_vector(self):
        lams = [0.5, 1.0, 2.0]
        rep = theorem1_upper([1.0] * 4, uniform_weights(4), lams)
        assert rep.lambdas == lams
        with pytest.raises(ValueError):
            theorem1_upper([1.0] * 4, uniform_weights(4), [1.0, 2.0])

    def test_zero_denominator_names_task(self):
        with pytest.raises(ValueError, match="task 2"):
            theorem1_upper([1.0, 1.0], uniform_weights(2), 0.0)

    def test_report_round_trips_to_json(self):
        rep = theorem1_upper([1.0, 2.0, 3.0], uniform_weights(3), 1.0)
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "upper"
        assert doc["T"] == 3
        assert doc["value"] == pytest.approx(rep.value)

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError):
            theorem1_upper([1.0], [], 1.0)


def _outcome(fn, *args, **kwargs):
    """A report's JSON, or the type and message of what the call raised."""
    try:
        return fn(*args, **kwargs).to_json()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestTheorem1MatchesReference:
    """Shared input checks and cached alpha powers leave every report's
    bytes and every error as the evaluators had them."""

    EVALUATORS = {"upper": theorem1_upper, "lower": theorem1_lower}

    @staticmethod
    def random_weights(rng, T):
        return [MixtureWeights(t, rng.dirichlet(np.ones(t - 1))) for t in range(2, T + 1)]

    def assert_same(self, kind, *args, **kwargs):
        got = _outcome(self.EVALUATORS[kind], *args, **kwargs)
        assert got == _outcome(theorem1_reference[kind], *args, **kwargs)
        return got

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_grid_reports_byte_equal(self, k):
        rng = np.random.default_rng(k)
        for T in (2, 5, 8):
            losses = list(rng.uniform(0.5, 4.0, size=T))
            for weights in (uniform_weights(T), self.random_weights(rng, T)):
                for lam in np.linspace(0.01, 20.0, 400):
                    for kind in ("upper", "lower"):
                        assert isinstance(self.assert_same(kind, losses, weights, lam, k), str)

    def test_per_task_lambdas_and_minf_byte_equal(self):
        rng = np.random.default_rng(11)
        for T in (2, 4, 6):
            weights = self.random_weights(rng, T)
            for _ in range(50):
                losses = rng.uniform(0.5, 4.0, size=T)  # an array, as callers may pass
                lams = list(rng.uniform(0.0, 6.0, size=T - 1))
                minf = list(rng.uniform(0.0, 1.0, size=T - 1))
                for k in (1, 3):
                    self.assert_same("lower", losses, weights, lams, k)
                    self.assert_same("upper", losses, weights, lams, k)
                    self.assert_same("upper", losses, weights, lams, k, minf, "optimized")

    def test_error_paths_raise_as_before(self):
        w3 = uniform_weights(3)
        misplaced = [w3[0], MixtureWeights(4, np.full(3, 1 / 3))]  # task 3 gets task 4's
        cases = [  # (arguments, kinds that raise)
            (([1.0, 2.0, 3.0], misplaced, 1.0, 1), "upper lower"),  # wrong task index
            (([1.0, 2.0, 3.0], w3, -0.5, 1), "upper lower"),  # negative coefficient
            (([1.0, 2.0, 3.0], w3, [1.0, -2.0], 2), "upper lower"),
            (([1.0, 2.0, 3.0], w3, 0.0, 1), "upper"),  # zero denominator
            (([1.0, 2.0, 3.0], w3, [1.0, 0.0], 1), "upper"),
            (([1.0], [], 1.0, 1), "upper lower"),  # T < 2
            (([1.0, 2.0, 3.0], w3[:1], 1.0, 1), "upper lower"),  # one weight short
            (([1.0, 2.0, 3.0], w3, [1.0, 2.0, 3.0], 1), "upper lower"),  # a coefficient too many
            (([1.0, 2.0, 3.0], w3, 1.0, 0), "upper lower"),  # no negatives
        ]
        for args, raising in cases:
            for kind in ("upper", "lower"):
                got = self.assert_same(kind, *args)
                assert (got[0] is ValueError) == (kind in raising.split())
        assert "zero denominator" in self.assert_same("upper", *cases[3][0])[1]
        assert "different task index" in self.assert_same("lower", *cases[0][0])[1]

    def test_first_fault_wins_as_before(self):
        # tasks are checked in order, and within a task the index before the sign
        w3 = uniform_weights(3)
        misplaced = [w3[0], MixtureWeights(4, np.full(3, 1 / 3))]  # task 3 gets task 4's
        losses = [1.0, 2.0, 3.0]
        cases = [  # (arguments, what upper reports, what lower reports)
            ((losses, misplaced, [0.0, 1.0], 1), "zero denominator", "different task index"),
            ((losses, misplaced, [-1.0, 1.0], 1), "non-negative", "non-negative"),
            ((losses, misplaced, [1.0, -1.0], 1), "different task index", "different task index"),
            ((losses, w3, [0.0, -1.0], 1), "zero denominator", "non-negative"),
            ((losses, w3[::-1], -1.0, 1), "different task index", "different task index"),
            ((losses, misplaced, [1.0] * 3, 1), "coefficient per task", "coefficient per task"),
            ((losses, misplaced, 1.0, 0), "negative sample", "negative sample"),
        ]
        for args, upper, lower in cases:
            assert upper in self.assert_same("upper", *args)[1]
            assert lower in self.assert_same("lower", *args)[1]
        # a short minf list fails only where it is read, after earlier tasks' checks
        short = [0.1]
        got = self.assert_same("upper", losses, misplaced, 1.0, 1, short)
        assert "different task index" in got[1]
        assert self.assert_same("upper", losses, w3, 1.0, 1, short)[0] is IndexError
        assert "zero denominator" in self.assert_same("upper", losses, w3, 0.0, 1, short)[1]

    @pytest.mark.parametrize("lam", [
        2, True, np.float64(0.7), np.int64(3), np.array(0.7), fractions.Fraction(1, 3),
    ], ids=["int", "bool", "float64", "int64", "0-d array", "Fraction"])
    def test_scalar_lambda_types(self, lam):
        # np.isscalar decides: a 0-d array is not a scalar, so it is iterated and fails
        rng = np.random.default_rng(5)
        for T in (2, 5):
            losses = list(rng.uniform(0.5, 4.0, size=T))
            for weights in (uniform_weights(T), self.random_weights(rng, T)):
                for kind in ("upper", "lower"):
                    got = self.assert_same(kind, losses, weights, lam, 2)
                    assert isinstance(got, str) != isinstance(lam, np.ndarray)


class TestComputeU:
    def test_hand_example(self):
        # t=3, lam=1: gamma(2) = 1/2 gives 2*alpha*L2; gamma(3) = 1/3
        # gives 3*L3; with unit losses U = 2*alpha + 3
        weights = [
            MixtureWeights(task_index=2, weights=np.array([1.0])),
            MixtureWeights(task_index=3, weights=np.array([0.5, 0.5])),
        ]
        u = compute_U([1.0, 1.0], weights, 1.0)
        assert u == pytest.approx(2 * constants(1).alpha + 3.0, abs=1e-12)

    def test_monotone_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(2, 6))
            weights = []
            for j in range(2, t + 1):
                w = rng.dirichlet(np.ones(j - 1)) + 0.01
                weights.append(MixtureWeights(task_index=j, weights=w / w.sum()))
            losses = rng.uniform(0.1, 3.0, size=t - 1)
            lam = float(rng.uniform(0.05, 2.0))
            delta = float(rng.uniform(0.0, 3.0))
            assert compute_U(losses, weights, lam + delta) <= compute_U(
                losses, weights, lam
            ) + 1e-12

    def test_zero_lambda_rejected(self):
        weights = [MixtureWeights(task_index=2, weights=np.array([1.0]))]
        with pytest.raises(ValueError):
            compute_U([1.0], weights, 0.0)


class TestTheorem2Step:
    def test_increases_only_above_threshold(self):
        state = ScheduleState(t=2, lam=1.0, u_t=5.0, delta_t=0.5)
        up = theorem2_step(state, 6.0)
        assert up.lam == pytest.approx(1.5)
        assert up.t == 3
        same = theorem2_step(state, 4.0)
        assert same.lam == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleState(t=2, lam=1.0, u_t=0.0, delta_t=0.1)
        with pytest.raises(ValueError):
            ScheduleState(t=2, lam=1.0, u_t=1.0, delta_t=-0.1)


class TestTurningPoint:
    def test_formula(self):
        weights = [
            MixtureWeights(task_index=2, weights=np.array([1.0])),
            MixtureWeights(task_index=3, weights=np.array([0.9, 0.1])),
        ]
        # saturation needs lam >= 1/(t min_j k_tj): max(1/2, 1/0.3)
        assert turning_point(weights) == pytest.approx(1.0 / 0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            turning_point([])

    def test_upper_bound_flat_beyond_turning_point(self):
        weights = uniform_weights(4)
        lam_star = turning_point(weights)
        losses = [1.0, 0.8, 1.2, 0.9]
        at_star = theorem1_upper(losses, weights, lam_star).value
        beyond = theorem1_upper(losses, weights, lam_star * 7).value
        assert beyond == pytest.approx(at_star, abs=1e-12)
        below = theorem1_upper(losses, weights, lam_star * 0.5).value
        assert below > at_star
