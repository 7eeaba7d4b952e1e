import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bellbench.inequalities import TIED_ORIENTATIONS
from bellbench.lhv import MAX_STRATEGIES, meets
from conftest import ALL_PAIRS

from bellbench import (
    CONSTRAINTS,
    FUNCTIONALS,
    EvaluationError,
    LhvModel,
    OUTCOMES,
    Outcome,
    ResponseFunction,
    check_gr,
    check_supplementary,
    ensemble_table,
    expectation,
    label_sides,
    local_bound,
    make_report,
    sample_random_model,
    sample_response_function,
)

P, M, N = Outcome.PLUS, Outcome.MINUS, Outcome.NONE


class TestResponseFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseFunction({"a": (0.7, 0.7)}, {})
        with pytest.raises(ValueError):
            ResponseFunction({"a": (-0.1, 0.5)}, {})

    def test_deterministic_channels(self):
        rf = ResponseFunction.deterministic({"a": P}, {"b": N})
        assert rf.response(1, "a") == (1.0, 0.0, 0.0)
        assert rf.response(2, "b") == (0.0, 0.0, 1.0)

    def test_missing_slot_fails_loudly(self):
        rf = ResponseFunction({"a": (0.5, 0.2)}, {"b": (0.1, 0.1)})
        with pytest.raises(EvaluationError):
            rf.response(1, "a_prime")


class TestConstraints:
    def test_supplementary_pass_and_fail(self):
        ok = ResponseFunction(
            {"a": (0.3, 0.2), "r": (0.5, 0.4)},
            {"b": (0.8, 0.0), "r": (0.9, 0.05)})
        assert check_supplementary(ok)
        bad = ResponseFunction(
            {"a": (0.8, 0.0), "r": (0.3, 0.2)},
            {"b": (0.1, 0.1), "r": (0.5, 0.5)})
        assert not check_supplementary(bad)

    def test_gr_requires_equal_totals(self):
        eq = ResponseFunction(
            {"a": (0.6, 0.3), "r": (0.1, 0.8)},
            {"b": (0.45, 0.45), "r": (0.9, 0.0)})
        assert check_gr(eq)
        uneq = ResponseFunction(
            {"a": (0.3, 0.2), "r": (0.5, 0.4)},
            {"b": (0.9, 0.0), "r": (0.9, 0.0)})
        assert not check_gr(uneq)

    def test_gr_implies_supplementary_on_example(self):
        eq = ResponseFunction(
            {"a": (0.6, 0.3), "r": (0.1, 0.8)},
            {"b": (0.45, 0.45), "r": (0.9, 0.0)})
        assert check_supplementary(eq)

    @pytest.mark.parametrize("check", [check_supplementary, check_gr])
    def test_constraints_need_an_r_slot(self, check):
        rf = ResponseFunction({"a": (0.5, 0.2)}, {"b": (0.1, 0.1), "r": (0.5, 0.5)})
        with pytest.raises(EvaluationError, match="'r' on side 1"):
            check(rf)

    def test_supplementary_does_not_imply_gr(self):
        # Detection totals differ between settings, yet every channel
        # stays below the reference total: the equality version is
        # strictly stronger.
        witness = ResponseFunction(
            {"a": (0.3, 0.2), "r": (0.5, 0.4)},
            {"b": (0.2, 0.1), "r": (0.4, 0.3)})
        assert check_supplementary(witness)
        assert not check_gr(witness)


class TestEnsembleTable:
    def test_weights_must_normalize(self):
        rf = ResponseFunction.deterministic({"a": P}, {"b": P})
        with pytest.raises(ValueError):
            LhvModel((rf, rf), (0.5, 0.6))
        with pytest.raises(ValueError):
            LhvModel((), ())

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_weights_must_be_finite(self, w):
        rf = ResponseFunction.deterministic({"a": P}, {"b": P})
        for strategies, weights in (((rf,), (w,)), ((rf, rf), (w, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                LhvModel(strategies, weights)
            q = np.zeros((len(weights), 2, 1, 2))
            with pytest.raises(ValueError, match="finite"):
                LhvModel._from_array(q, (("a",), ("b",)), weights)

    @pytest.mark.parametrize("weights,match", [
        ((1.0,), "differ in length"), ((1.5, -0.5), "non-negative")])
    def test_weights_must_fit_the_strategies(self, weights, match):
        rf = ResponseFunction.deterministic({"a": P}, {"b": P})
        with pytest.raises(ValueError, match=match):
            LhvModel((rf, rf), weights)

    def test_drawn_responses_are_checked(self):
        q = np.zeros((2, 2, 2, 2))
        names = (("r", "a"), ("r", "b"))
        for cell, value, message in (((1, 0, 1, 0), -0.1, r"out of \[0,1\] at 'a'"),
                                     ((1, 1, 0, 1), math.nan, r"out of \[0,1\] at 'r'"),
                                     ((0, 1, 1), (0.7, 0.7), r"q\+ \+ q- > 1 at 'b'")):
            bad = q.copy()
            bad[cell] = value
            with pytest.raises(ValueError, match=message):
                LhvModel._from_array(bad, names, (0.5, 0.5))

    def test_deterministic_product(self):
        rf = ResponseFunction.deterministic(
            {"a": P, "a_prime": M}, {"b": M, "b_prime": N})
        model = LhvModel((rf,), (1.0,))
        t = ensemble_table(model, (("a", "b"), ("b_prime", "a"), ("b", "a_prime")))
        assert t.get(("a", "b")).prob(P, M) == 1.0
        # label order fixes which marginal belongs to which label
        assert t.get(("b_prime", "a")).prob(N, P) == 1.0
        assert t.get(("b", "a_prime")).prob(M, M) == 1.0

    def test_mixture_is_convex(self):
        rf1 = ResponseFunction.deterministic({"a": P}, {"b": P})
        rf2 = ResponseFunction.deterministic({"a": M}, {"b": M})
        model = LhvModel((rf1, rf2), (0.25, 0.75))
        d = ensemble_table(model, (("a", "b"),)).get(("a", "b"))
        assert d.prob(P, P) == pytest.approx(0.25)
        assert d.prob(M, M) == pytest.approx(0.75)
        assert expectation(d) == pytest.approx(1.0)

    def test_stochastic_tables_normalize(self):
        rng = np.random.default_rng(0)
        rf = sample_response_function(rng)
        model = LhvModel((rf,), (1.0,))
        t = ensemble_table(model, (("a", "b"), ("r", "r")))
        for label in (("a", "b"), ("r", "r")):
            assert sum(t.get(label).flat()) == pytest.approx(1.0)

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_matches_a_loop_over_strategies(self, constraint):
        for seed in range(20):
            model = sample_random_model(seed, 5, constraint, tie_primed_to_r=seed % 2 == 1)
            t = ensemble_table(model, ALL_PAIRS)
            for label in ALL_PAIRS:
                (n1, n2), (s1, s2) = label, label_sides(label)
                expected = sum(w * np.outer(rf.response(s1, n1), rf.response(s2, n2))
                               for rf, w in zip(model.strategies, model.weights))
                np.testing.assert_allclose(t.get(label).p, expected, rtol=0, atol=1e-15)


class TestModelArray:
    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_rebuilt_from_its_strategies(self, constraint, tie):
        # A drawn model hands its array over directly; building the same
        # model from its ResponseFunction views must give the same array
        # and the same tables, bit for bit.
        for seed in range(200):
            model = sample_random_model(seed, 1 + seed % 5, constraint, tie_primed_to_r=tie)
            rebuilt = LhvModel(model.strategies, model.weights)
            assert model == rebuilt
            assert rebuilt.present is None
            np.testing.assert_array_equal(model.responses, rebuilt.responses)
            # Each strategy's row is its view's (q+, q-, q_none), bit for bit.
            for row, rf in zip(model.responses.tolist(), model.strategies):
                for side, (names, slots) in enumerate(zip(model.names, row)):
                    assert [rf.response(side + 1, name) for name in names] == \
                        [tuple(q) for q in slots[:len(names)]]
            drawn, built = ensemble_table(model, ALL_PAIRS), ensemble_table(rebuilt, ALL_PAIRS)
            assert all(drawn.get(label).p == built.get(label).p for label in ALL_PAIRS)

    def test_sampled_response_functions_are_unchanged(self):
        # Values the per-strategy sampler drew: per constraint, the draws
        # (untied, tied, untied) from one generator.
        expected = {
            "none": ((0.19281801353214167, 0.7316346740250216),
                     (0.2262330683014625, 0.5127551389477146),
                     (0.5968223667041186, 0.3253496550827225)),
            "supplementary": ((0.1659611508983374, 0.8219796915456711),
                              (0.13387382478786392, 0.6255450875093246),
                              (0.48106866943085724, 0.40154584191596543)),
            "gr": ((0.2213656273136636, 0.052879376941616936),
                   (0.20443343260079855, 0.05977200733966997),
                   (0.19417595115283912, 0.1311737039298834)),
        }
        for constraint, (a, b_prime, tied_b_prime) in expected.items():
            rng = np.random.default_rng(2024)
            _, tied, third = (sample_response_function(rng, constraint, tie_primed_to_r=tie)
                              for tie in (False, True, False))
            assert (third.side1["a"], third.side2["b_prime"]) == (a, b_prime)
            assert tied.side2["b_prime"] == tied.side2["r"] == tied_b_prime

    def test_mixed_slot_sets(self):
        rf1 = ResponseFunction.deterministic({"a": P, "a_prime": M}, {"b": P})
        rf2 = ResponseFunction({"a": (0.25, 0.5)}, {"b": (0.0, 0.5), "b_prime": (1.0, 0.0)})
        model = LhvModel((rf1, rf2), (0.5, 0.5))
        assert model.names == (("a", "a_prime"), ("b", "b_prime"))
        assert model.strategies == (rf1, rf2)
        d = ensemble_table(model, (("a", "b"),)).get(("a", "b"))
        expected = sum(w * np.outer(rf.response(1, "a"), rf.response(2, "b"))
                       for rf, w in zip(model.strategies, model.weights))
        np.testing.assert_array_equal(d.p, expected)
        # A slot some strategy lacks, or that none has, fails loudly.
        for label, match in ((("a_prime", "b"), "'a_prime' on side 1"),
                             (("a", "b_prime"), "'b_prime' on side 2"),
                             (("r", "b"), "'r' on side 1")):
            with pytest.raises(EvaluationError, match=match):
                ensemble_table(model, (("a", "b"), label))

    def test_immutable(self):
        model = sample_random_model(1, 2)
        with pytest.raises(AttributeError):
            model.weights = (1.0, 0.0)
        with pytest.raises(ValueError):
            model.responses[0, 0, 0, 0] = 0.5


class TestLocalBounds:
    # Frozen results of the exhaustive deterministic-strategy enumeration.
    EXPECTED = {
        ("INEQ17", "none"): -1.0,
        ("INEQ19", "none"): -1.0,
        ("INEQ19", "supplementary"): -1.0,
        ("INEQ19", "gr"): -1.0,
        ("CHSH27", "none"): -2.0,
        ("BELL65_28", "none"): -1.0,
        ("STRONG41", "supplementary"): -1.0,
        ("STRONG46", "supplementary"): -1.0,
        ("STRONG46", "gr"): -1.0,
    }

    @pytest.mark.parametrize("fid,constraint", sorted(EXPECTED))
    def test_frozen_bounds(self, fid, constraint):
        r = local_bound(fid, constraint)
        assert r.bound == pytest.approx(self.EXPECTED[(fid, constraint)], abs=1e-12)

    @staticmethod
    def witness_value(r):
        sym = {"+": P, "-": M, "0": N}
        rf = ResponseFunction.deterministic(
            {k: sym[v] for k, v in r.witness_side1.items()},
            {k: sym[v] for k, v in r.witness_side2.items()})
        model = LhvModel((rf,), (1.0,))
        f = FUNCTIONALS[r.functional]
        return f.evaluate(ensemble_table(model, f.required_pairs)).value

    def test_witness_achieves_bound(self):
        r = local_bound("INEQ19", "none")
        assert self.witness_value(r) == pytest.approx(r.bound, abs=1e-12)

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("fid", list(FUNCTIONALS))
    def test_registry_bound_matches_engine(self, fid, constraint):
        # Every bound in the registry is the engine's exact extremum, and
        # its witness, tied slots included, attains it.
        r = local_bound(fid, constraint)
        assert r.bound == FUNCTIONALS[fid].bound
        assert self.witness_value(r) == r.bound

    # Bound, witness per side (each slot's name and outcome) and strategies
    # examined, as the engine has given them since the linear-form registry.
    RESULTS = {
        ("INEQ17", "none"): (-1.0, "a+ a_prime+", "b- b_prime+", 81),
        ("INEQ17", "supplementary"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 361),
        ("INEQ17", "gr"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 81),
        ("INEQ19", "none"): (-1.0, "a+ a_prime+", "b- b_prime+", 81),
        ("INEQ19", "supplementary"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 361),
        ("INEQ19", "gr"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 81),
        ("CHSH27", "none"): (-2.0, "a+ a_prime+", "b- b_prime+", 81),
        ("CHSH27", "supplementary"): (-2.0, "a+ a_prime+ r+", "b- b_prime+ r+", 361),
        ("CHSH27", "gr"): (-2.0, "a+ a_prime+ r+", "b- b_prime+ r+", 81),
        ("BELL65_28", "none"): (-1.0, "a+ a_prime+", "b- b_prime+", 27),
        ("BELL65_28", "supplementary"): (-1.0, "a+ a_prime+ r+", "b- r+ b_prime+", 121),
        ("BELL65_28", "gr"): (-1.0, "a+ a_prime+ r+", "b- r+ b_prime+", 33),
        ("STRONG41", "none"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 324),
        ("STRONG41", "supplementary"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 324),
        ("STRONG41", "gr"): (-1.0, "a+ a_prime+ r+", "b- b_prime+ r+", 64),
        ("STRONG46", "none"): (-1.0, "a+ r+ a_prime+", "b- r+ b_prime+", 36),
        ("STRONG46", "supplementary"): (-1.0, "a+ r+ a_prime+", "b- r+ b_prime+", 36),
        ("STRONG46", "gr"): (-1.0, "a+ r+ a_prime+", "b- r+ b_prime+", 16),
    }

    @pytest.mark.parametrize("fid,constraint", sorted(RESULTS))
    def test_frozen_results(self, fid, constraint):
        r = local_bound(fid, constraint)
        bound, side1, side2, n = self.RESULTS[fid, constraint]
        assert (r.bound, r.n_strategies) == (bound, n)
        for got, text in ((r.witness_side1, side1), (r.witness_side2, side2)):
            assert list(got.items()) == [(slot[:-1], slot[-1]) for slot in text.split()]

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("fid", list(FUNCTIONALS))
    def test_matches_pairs_scored_one_by_one(self, fid, constraint):
        # An independent path to the same numbers: every pair of
        # deterministic ResponseFunctions over the engine's slots (at most
        # 3^3 x 3^3), side 1 varying slowest, each scored as a one-strategy
        # model through ensemble_table and Functional.evaluate.
        r = local_bound(fid, constraint)
        f = FUNCTIONALS[fid]
        slots = (tuple(r.witness_side1), tuple(r.witness_side2))
        # A tied slot copies its target: r on its own side, else the
        # target orientation's side.
        ties = [(side, name, side if target == "r" else 2 if target.startswith("b") else 1, target)
                for name, target in TIED_ORIENTATIONS.get(fid, {}).items()
                for side in (1, 2) if name in slots[side - 1]]
        check = {"none": lambda rf: True, "supplementary": check_supplementary, "gr": check_gr}
        best, count = None, 0
        for s1, s2 in itertools.product(*(
                [dict(zip(names, outcomes)) for outcomes in itertools.product(OUTCOMES, repeat=len(names))]
                for names in slots)):
            rf = ResponseFunction.deterministic(s1, s2)
            if not check[constraint](rf) or any(
                    rf.response(side, name) != rf.response(t_side, target)
                    for side, name, t_side, target in ties):
                continue
            try:
                report = f.evaluate(ensemble_table(LhvModel((rf,), (1.0,)), f.required_pairs))
            except EvaluationError as exc:
                assert "no r,r coincidences" in str(exc)
                continue  # the ratio is undefined
            count += 1
            if best is None or report.margin > best[0].margin:
                best = (report, s1, s2)
        report, s1, s2 = best
        assert (r.bound, r.n_strategies) == (report.value, count)
        for got, side in ((r.witness_side1, s1), (r.witness_side2, s2)):
            assert list(got.items()) == [(n, o.value) for n, o in side.items()]

    def test_constraint_only_tightens(self):
        for fid in ("INEQ19", "STRONG41"):
            free = local_bound(fid, "none").bound
            supp = local_bound(fid, "supplementary").bound
            gr = local_bound(fid, "gr").bound
            assert supp >= free - 1e-12
            assert gr >= supp - 1e-12

    def test_unknown_inputs(self):
        with pytest.raises(ValueError):
            local_bound("NOPE")
        with pytest.raises(ValueError):
            local_bound("INEQ19", "extra")


class TestSampling:
    def test_deterministic_in_seed(self):
        m1 = sample_random_model(7, 3)
        m2 = sample_random_model(7, 3)
        assert m1 == m2
        assert m1 != sample_random_model(8, 3)

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_samples_respect_constraint(self, constraint):
        rng = np.random.default_rng(21)
        for _ in range(200):
            rf = sample_response_function(rng, constraint)
            if constraint == "supplementary":
                assert check_supplementary(rf)
            elif constraint == "gr":
                assert check_gr(rf, tol=1e-9)

    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_drawn_strategies_meet_their_constraint(self, constraint, tie):
        for seed in range(200):
            for rf in sample_random_model(seed, 4, constraint, tie_primed_to_r=tie).strategies:
                if constraint != "none":
                    assert check_supplementary(rf)
                if constraint == "gr":
                    assert check_gr(rf, tol=1e-12)
                if tie:
                    assert rf.side1["a_prime"] == rf.side1["r"]
                    assert rf.side2["b_prime"] == rf.side2["r"]

    def test_sides_of_different_length(self):
        rng = np.random.default_rng(3)
        for constraint in CONSTRAINTS:
            rf = sample_response_function(rng, constraint, ("a", "r"), ("b", "b_prime", "r"))
            assert set(rf.side1) == {"a", "r"} and set(rf.side2) == {"b", "b_prime", "r"}
            assert constraint == "none" or check_supplementary(rf)
        with pytest.raises(ValueError):
            sample_response_function(rng, "supplementary", ("a",), ("b", "r"))

    def test_strategy_cap(self):
        assert len(sample_random_model(0, MAX_STRATEGIES).strategies) == MAX_STRATEGIES
        for n in (0, MAX_STRATEGIES + 1):
            with pytest.raises(ValueError):
                sample_random_model(0, n)

    def test_unknown_constraint(self):
        with pytest.raises(ValueError, match="unknown constraint 'extra'"):
            sample_random_model(0, 2, "extra")

    def test_compares_unequal_to_other_types(self):
        assert (sample_random_model(7, 3) == 3) is False

    def test_tie_primed_to_r(self):
        rng = np.random.default_rng(5)
        rf = sample_response_function(rng, tie_primed_to_r=True)
        assert rf.side1["a_prime"] == rf.side1["r"]
        assert rf.side2["b_prime"] == rf.side2["r"]

    @given(st.integers(min_value=0, max_value=10_000))
    @hyp_settings(max_examples=60, deadline=None)
    def test_no_random_model_beats_the_bound(self, seed):
        model = sample_random_model(seed, 3)
        f = FUNCTIONALS["INEQ19"]
        value = f.evaluate(ensemble_table(model, f.required_pairs)).value
        assert value >= -1.0 - 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @hyp_settings(max_examples=60, deadline=None)
    def test_no_gr_model_beats_the_ratio_bound(self, seed):
        model = sample_random_model(seed, 3, constraint="gr", tie_primed_to_r=True)
        f = FUNCTIONALS["STRONG46"]
        try:
            value = f.evaluate(ensemble_table(model, f.required_pairs)).value
        except EvaluationError:
            return  # no reference coincidences: the ratio is undefined
        assert value >= -1.0 - 1e-9


# Seeded random local models against the engine's bounds: seeds 0-1499,
# four strategies each, one model per seed and constraint.  STRONG46 puts
# a' and b' along r, so it is checked on models with the primed slots tied
# to r.  BELL65_28 is left out: it ties b' to a' across the sides, which
# the sampler cannot draw.
_SEEDS = range(1500)


@functools.lru_cache(maxsize=None)
def _seeded_models(constraint, tie):
    return tuple(sample_random_model(seed, 4, constraint, tie_primed_to_r=tie) for seed in _SEEDS)


_NO_BOUND = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ratio form under 'none': local_bound drops the strategy pairs with no (r, r) "
    "coincidences although their numerator can be negative, so -1 is not a bound"))


@pytest.mark.parametrize("fid,constraint", [
    pytest.param(fid, constraint,
                 marks=_NO_BOUND if (fid, constraint) in {("STRONG41", "none"), ("STRONG46", "none")} else ())
    for fid in ("INEQ17", "INEQ19", "CHSH27", "STRONG41", "STRONG46") for constraint in CONSTRAINTS])
def test_no_seeded_model_beats_the_engine_bound(fid, constraint):
    f = FUNCTIONALS[fid]
    bound = local_bound(fid, constraint).bound
    worst = -math.inf
    for model in _seeded_models(constraint, fid == "STRONG46"):
        try:
            value = f.evaluate(ensemble_table(model, f.required_pairs)).value
        except EvaluationError:
            continue  # no reference coincidences: the ratio is undefined
        worst = max(worst, make_report(fid, value, bound, f.direction).margin)
    assert worst <= 1e-9


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_constraint_predicate_matches_the_checks(constraint, tie):
    # The array predicate on a whole model, r being every side's first
    # slot, agrees with check_supplementary and check_gr on its views.
    for model in _seeded_models(constraint, tie)[:100]:
        assert model.names[0][0] == model.names[1][0] == "r"
        for name, check in (("supplementary", check_supplementary), ("gr", check_gr)):
            on_array = meets(model.responses, 0, name).all(axis=1)
            assert on_array.tolist() == [check(rf) for rf in model.strategies]
