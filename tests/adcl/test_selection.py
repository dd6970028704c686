"""Unit tests for the selection logics, driven with synthetic timings."""

import pytest

from repro.adcl import (
    BruteForceSelector,
    CollFunction,
    FactorialSelector,
    FixedSelector,
    FunctionSet,
    HeuristicSelector,
    FunctionSet,
)
from repro.errors import SelectionError


def _dummy_maker(ctx, spec, buffers):  # pragma: no cover - never invoked
    raise AssertionError("maker should not run in selector unit tests")


def grid_fnset(avals=(1, 2, 3), bvals=("x", "y")):
    """A full cross-product function-set with synthetic attributes."""
    fns = [
        CollFunction(f"f_a{a}_b{b}", _dummy_maker, {"a": a, "b": b})
        for a in avals
        for b in bvals
    ]
    return FunctionSet("grid", fns)


def drive(selector, cost_fn, max_iters=500):
    """Run the learning loop: cost_fn(fn_index) -> seconds."""
    for it in range(max_iters):
        idx = selector.function_for_iteration(it)
        if selector.decided:
            return it
        selector.feed(it, idx, cost_fn(idx))
    raise AssertionError("selector never decided")


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_visits_every_function():
    fnset = grid_fnset()
    sel = BruteForceSelector(fnset, evals_per_function=3)
    seen = set()
    for it in range(3 * len(fnset)):
        seen.add(sel.function_for_iteration(it))
        sel.feed(it, sel.function_for_iteration(it), 1.0)
    assert seen == set(range(len(fnset)))


def test_brute_force_picks_cheapest():
    fnset = grid_fnset()
    sel = BruteForceSelector(fnset, evals_per_function=4)
    best = 3
    drive(sel, lambda i: 0.5 if i == best else 1.0 + i * 0.1)
    assert sel.winner == best
    assert sel.decided_at == len(fnset) * 4


def test_brute_force_learning_length():
    fnset = grid_fnset()
    sel = BruteForceSelector(fnset, evals_per_function=2)
    assert sel.learning_iterations == 2 * len(fnset)


def test_brute_force_outlier_does_not_flip_decision():
    fnset = grid_fnset()
    sel = BruteForceSelector(fnset, evals_per_function=5, filter_method="cluster")
    best = 2
    calls = {"n": 0}

    def cost(i):
        calls["n"] += 1
        base = 0.5 if i == best else 0.8
        # every 4th measurement is an OS-interference outlier
        return base * (10.0 if calls["n"] % 4 == 0 else 1.0)

    drive(sel, cost)
    assert sel.winner == best


def test_brute_force_unfiltered_mean_can_be_fooled():
    """Ablation: without filtering, one huge outlier flips the decision."""
    fnset = grid_fnset(avals=(1, 2), bvals=("x",))
    hits = {0: 0, 1: 0}

    def cost(i):
        hits[i] += 1
        if i == 0:
            return 100.0 if hits[i] == 1 else 0.5  # truly fastest, one outlier
        return 1.0

    sel_mean = BruteForceSelector(fnset, evals_per_function=3, filter_method="mean")
    drive(sel_mean, cost)
    assert sel_mean.winner == 1  # fooled

    hits = {0: 0, 1: 0}
    sel_clu = BruteForceSelector(fnset, evals_per_function=3, filter_method="cluster")
    drive(sel_clu, cost)
    assert sel_clu.winner == 0  # robust


def test_evals_must_be_positive():
    with pytest.raises(SelectionError):
        BruteForceSelector(grid_fnset(), evals_per_function=0)


# ---------------------------------------------------------------------------
# fixed
# ---------------------------------------------------------------------------


def test_fixed_selector_always_returns_choice():
    fnset = grid_fnset()
    sel = FixedSelector(fnset, 4)
    assert sel.decided
    assert all(sel.function_for_iteration(it) == 4 for it in range(10))


def test_fixed_selector_range_check():
    with pytest.raises(SelectionError):
        FixedSelector(grid_fnset(), 99)


# ---------------------------------------------------------------------------
# heuristic
# ---------------------------------------------------------------------------


def test_heuristic_shorter_learning_than_brute_force():
    fnset = grid_fnset(avals=(1, 2, 3), bvals=("x", "y"))  # 6 functions
    sel = HeuristicSelector(fnset, evals_per_function=2)
    it = drive(sel, lambda i: 1.0 + i * 0.01)
    # heuristic: 3 candidates for 'a' + 2 for 'b' = 5 < 6 functions
    assert it <= 5 * 2
    brute = BruteForceSelector(fnset, evals_per_function=2)
    assert it < brute.learning_iterations


def test_heuristic_finds_separable_optimum():
    fnset = grid_fnset(avals=(1, 2, 3), bvals=("x", "y"))

    def cost(i):
        f = fnset[i]
        # separable cost: a=2 and b='y' are individually optimal
        return (abs(f.attributes["a"] - 2) + (0.0 if f.attributes["b"] == "y" else 0.5)
                + 0.1)

    sel = HeuristicSelector(fnset, evals_per_function=3)
    drive(sel, cost)
    w = fnset[sel.winner]
    assert w.attributes == {"a": 2, "b": "y"}


def test_heuristic_without_attributes_degenerates_to_full_scan():
    fns = [CollFunction(f"f{i}", _dummy_maker) for i in range(4)]
    fnset = FunctionSet("plain", fns)
    sel = HeuristicSelector(fnset, evals_per_function=2)
    drive(sel, lambda i: 1.0 if i != 2 else 0.4)
    assert sel.winner == 2


def test_heuristic_on_sparse_set_stays_within_reachable_functions():
    """A diagonal (non-cross-product) set limits what the heuristic can
    explore: pinning b='x' while varying 'a' only ever reaches f1, so f2
    is invisible even if cheaper — the documented limitation of the
    one-attribute-at-a-time assumption."""
    fns = [
        CollFunction("f1", _dummy_maker, {"a": 1, "b": "x"}),
        CollFunction("f2", _dummy_maker, {"a": 2, "b": "y"}),
    ]
    fnset = FunctionSet("sparse", fns)
    sel = HeuristicSelector(fnset, evals_per_function=1)
    drive(sel, lambda i: 1.0 if i == 0 else 0.1)
    assert sel.winner == 0


# ---------------------------------------------------------------------------
# factorial
# ---------------------------------------------------------------------------


def test_factorial_tests_only_corners():
    fnset = grid_fnset(avals=(1, 2, 3), bvals=("x", "y"))
    sel = FactorialSelector(fnset, evals_per_function=2)
    learned = []
    for it in range(100):
        idx = sel.function_for_iteration(it)
        if sel.decided:
            break
        learned.append(idx)
        sel.feed(it, idx, 1.0 + idx * 0.01)
    else:
        raise AssertionError("selector never decided")
    # corners: a in {1,3} x b in {x,y} -> 4 functions, 2 evaluations each
    corners = [(fnset[i].attributes["a"], fnset[i].attributes["b"])
               for i in learned]
    assert all(a in (1, 3) for a, _ in corners)
    assert set(corners) == {(1, "x"), (1, "y"), (3, "x"), (3, "y")}
    assert it == 4 * 2


def test_factorial_picks_better_level_per_attribute():
    fnset = grid_fnset(avals=(1, 2, 3), bvals=("x", "y"))

    def cost(i):
        f = fnset[i]
        return (0.2 if f.attributes["a"] == 3 else 1.0) + (
            0.1 if f.attributes["b"] == "x" else 0.6
        )

    sel = FactorialSelector(fnset, evals_per_function=2)
    drive(sel, cost)
    w = fnset[sel.winner]
    assert w.attributes["a"] == 3
    assert w.attributes["b"] == "x"


def test_factorial_requires_attributes():
    fns = [CollFunction(f"f{i}", _dummy_maker) for i in range(3)]
    with pytest.raises(SelectionError):
        FactorialSelector(FunctionSet("plain", fns))


# ---------------------------------------------------------------------------
# shared behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [BruteForceSelector, HeuristicSelector,
                                 FactorialSelector])
def test_winner_stable_after_decision(cls):
    fnset = grid_fnset()
    sel = cls(fnset, evals_per_function=2)
    drive(sel, lambda i: 1.0 + i * 0.05)
    winner = sel.winner
    for it in range(200, 230):
        assert sel.function_for_iteration(it) == winner
        sel.feed(it, winner, 123.0)  # post-decision feeds are ignored
    assert sel.winner == winner
