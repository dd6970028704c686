"""Every shipped candidate, pinned: names, attribute values, blocking
flags, the derived attribute domains, and the offline decisions of the
three selectors over fixed cost tables.

``candidates_golden.json`` was recorded from the tree in which each set
still spelled out its attribute domains by hand next to the candidates;
deriving the domains from the candidates must not move any of it.
"""

import json
import os
from functools import partial

import pytest

from repro.adcl import (
    CollFunction,
    FunctionSet,
    HeuristicSelector,
    iallgather_function_set,
    ireduce_function_set,
)
from repro.adcl.fnsets import ibcast_mockup_function_set
from repro.adcl.request import SELECTOR_NAMES, make_selector
from repro.bench.overlap import OPERATION_KINDS, function_set_for
from repro.errors import ReproError, SelectionError
from repro.guidelines.mockup import synthetic_function_set

GOLDEN = os.path.join(os.path.dirname(__file__), "candidates_golden.json")

SETS = {op: partial(function_set_for, op) for op in OPERATION_KINDS}
SETS.update({
    "iallgather": iallgather_function_set,
    "iallgather_size5": partial(iallgather_function_set, size=5),
    "ireduce": ireduce_function_set,
    "ibcast_mockup": ibcast_mockup_function_set,
})
for _seed in (0, 1, 7):
    SETS[f"synthetic_seed{_seed}"] = partial(
        lambda seed: synthetic_function_set(seed)[0], _seed)


def _costs(n):
    """A fixed table whose minimum is not the first candidate."""
    return [1.0 + ((i * 37 + 50) % 101) / 100.0 for i in range(n)]


def _facts(fnset):
    domains = fnset.attribute_set
    out = {
        "set": fnset.name,
        "names": [f.name for f in fnset],
        "attributes": [dict(f.attributes) for f in fnset],
        "blocking": [f.blocking for f in fnset],
        "domains": None if domains is None
        else [[k, list(v)] for k, v in domains.items()],
        "offline": {},
    }
    for table, costs in (("fwd", _costs(len(fnset))),
                         ("rev", _costs(len(fnset))[::-1])):
        for name in SELECTOR_NAMES:
            try:
                sel = make_selector(name, fnset, evals_per_function=2)
                out["offline"][f"{name}/{table}"] = [
                    sel.run_offline(costs), sel.decided_at]
            except ReproError as exc:
                out["offline"][f"{name}/{table}"] = type(exc).__name__
    return out


def _canon(facts):
    # JSON text, so True and 1 (equal in Python) stay distinct
    return json.dumps(facts, sort_keys=True, indent=1)


with open(GOLDEN) as _fh:
    EXPECTED = json.load(_fh)


def test_golden_covers_every_set():
    assert sorted(SETS) == sorted(EXPECTED)


@pytest.mark.parametrize("key", sorted(SETS))
def test_candidates_match_the_recorded_facts(key):
    assert _canon(_facts(SETS[key]())) == _canon(EXPECTED[key])


def _never(ctx, spec, buffers):  # pragma: no cover - never invoked
    raise AssertionError("maker should not run")


def test_domains_follow_first_appearance_order():
    fnset = FunctionSet("order", [
        CollFunction("f0", _never, {"b": "y", "a": 2}),
        CollFunction("f1", _never, {"a": 1, "b": "y"}),
        CollFunction("f2", _never, {"a": 2, "b": "x"}),
    ])
    assert list(fnset.attribute_set.items()) == [
        ("b", ("y", "x")), ("a", (2, 1))]


@pytest.mark.parametrize("attributes", [
    [{}, {}, {}],
    [{"a": 1}, {"a": 2}, {}],
    [{"a": 1}, {"b": 1}, {"a": 2}],
    [{"a": 1, "b": 1}, {"a": 2}, {"a": 3, "b": 2}],
], ids=["none", "one-missing", "different-names", "subset"])
def test_attribute_set_is_none_unless_every_candidate_names_the_same(
        attributes):
    fnset = FunctionSet("mixed", [
        CollFunction(f"f{i}", _never, attrs)
        for i, attrs in enumerate(attributes)
    ])
    assert fnset.attribute_set is None
    # the heuristic degenerates to a full scan, the factorial refuses
    sel = HeuristicSelector(fnset, evals_per_function=1)
    assert sel.run_offline([1.0, 0.5, 2.0]) == 1
    with pytest.raises(SelectionError):
        make_selector("factorial", fnset)
