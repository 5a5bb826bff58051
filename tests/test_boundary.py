"""The one integer rule at the public boundary.

Every exported callable or constructor with an int- or bool-annotated
parameter has its slots in SLOTS or FLAGS, or is named in NOT_BOUNDARIES
with the reason it takes no count from a caller.  A slot refuses every
value that is not an integer, a bool included, and every value below its
bound, with a PolymatError; an object with __index__ gives the answer of
the equal plain int and is stored as that int.
"""

import dataclasses
import inspect
import json
import re
import types
from typing import Any, Callable, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polymat as pm

from conftest import I, M


class Index:
    """An integer-like object that is no int: it has __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class Slot(NamedTuple):
    call: Callable[[Any], Any]  # the entry point with the slot set to the value
    plain: int  # a valid value
    least: int | None  # the smallest valid value, where a bound applies
    optional: bool = False  # None is the documented default
    huge: bool = False  # a bound refuses 2**70 before any work


IDEAL = I("x1^2 + x1*x2 + x2*x3")
LAYER = pm.monomials_of_degree(2, 2)
SPEC = pm.CorpusSpec(n=2, d=1)
VERDICT = pm.run_conjecture_search(pm.CorpusSpec(n=3, d=2)).verdicts[4]


def _report(runner):
    return lambda v: runner(SPEC, jobs=v).to_json()


SLOTS = {
    "Monomial:exponents": Slot(lambda v: pm.Monomial((v, 1)), 2, 0),
    "VariableOrder:perm": Slot(lambda v: pm.VariableOrder((v, 1)), 2, 1, huge=True),
    "VariableOrder.identity:n": Slot(pm.VariableOrder.identity, 3, 1),
    "MonomialIdeal:n": Slot(lambda v: pm.MonomialIdeal(v, [M("x1*x2", 2)]), 2, 1, huge=True),
    "MonomialIdeal.localize:off": Slot(lambda v: IDEAL.localize([v]), 2, 1, huge=True),
    "MonomialIdeal.__pow__:e": Slot(lambda v: IDEAL ** v, 2, 0),
    "unit_monomial:n": Slot(pm.unit_monomial, 3, 1),
    "unit_ideal:n": Slot(pm.unit_ideal, 3, 1),
    "variable_monomial:var": Slot(lambda v: pm.variable_monomial(v, 3), 2, 1, huge=True),
    "variable_monomial:n": Slot(lambda v: pm.variable_monomial(1, v), 3, 1),
    "all_variable_orders:n": Slot(lambda v: list(pm.all_variable_orders(v)), 3, 1, huge=True),
    "MonomialSet:n": Slot(lambda v: pm.MonomialSet(v, 2, [M("x1*x2", 2)]), 2, 1, huge=True),
    "MonomialSet:d": Slot(lambda v: pm.MonomialSet(2, v, [M("x1*x2", 2)]), 2, 0, huge=True),
    "monomials_of_degree:n": Slot(lambda v: pm.monomials_of_degree(v, 2), 3, 1),
    "monomials_of_degree:d": Slot(lambda v: pm.monomials_of_degree(3, v), 2, 0),
    "iterated_shadow:depth": Slot(lambda v: pm.iterated_shadow(LAYER, v), 2, 0),
    "is_completely_lexsegment:bound": Slot(
        lambda v: pm.is_completely_lexsegment(M("x1^2", 3), M("x1*x3", 3), v), 2, 1, optional=True
    ),
    "parse_monomial:n": Slot(lambda v: pm.parse_monomial("x1*x2", v), 3, 1, optional=True),
    "parse_ideal:n": Slot(lambda v: pm.parse_ideal("x1 + x2", v), 3, 1, optional=True),
    "load_ideal_text:n": Slot(lambda v: pm.load_ideal_text("x1 + x2", v), 3, 1, optional=True),
    "load_ideal_text:n (JSON)": Slot(
        lambda v: pm.load_ideal_text('{"n": 2, "gens": [[1, 0]]}', v),
        2, 1, optional=True, huge=True,
    ),
    "ideal_from_mask:n": Slot(lambda v: pm.ideal_from_mask(v, 2, 5), 3, 1),
    "ideal_from_mask:d": Slot(lambda v: pm.ideal_from_mask(3, v, 5), 2, 0),
    "ideal_from_mask:mask": Slot(lambda v: pm.ideal_from_mask(3, 2, v), 5, 1, huge=True),
    "CorpusSpec:n": Slot(lambda v: pm.CorpusSpec(n=v, d=2), 3, 1, huge=True),
    "CorpusSpec:d": Slot(lambda v: pm.CorpusSpec(n=3, d=v), 2, 0, huge=True),
    "CorpusSpec:m": Slot(
        lambda v: pm.CorpusSpec(n=3, d=2, mode="random", m=v, count=3), 2, 1, huge=True
    ),
    "CorpusSpec:count": Slot(
        lambda v: pm.CorpusSpec(n=3, d=2, mode="random", m=2, count=v), 3, 1, huge=True
    ),
    "CorpusSpec:seed": Slot(
        lambda v: pm.CorpusSpec(n=3, d=2, mode="random", m=2, count=3, seed=v), 5, None
    ),
    "CorpusSpec:start_mask": Slot(
        lambda v: pm.CorpusSpec(n=3, d=2, start_mask=v), 5, 1, huge=True
    ),
    "run_theorem_suite:jobs": Slot(_report(pm.run_theorem_suite), 1, 1),
    "run_conjecture_search:jobs": Slot(_report(pm.run_conjecture_search), 1, 1),
    "run_localization_probe:jobs": Slot(_report(pm.run_localization_probe), 1, 1),
    "reverify_witness:n": Slot(lambda v: pm.reverify_witness(VERDICT, v, 2), 3, 1),
    "reverify_witness:d": Slot(lambda v: pm.reverify_witness(VERDICT, 3, v), 2, 0),
    "reverify_witness:verdict mask": Slot(
        lambda v: pm.reverify_witness({**VERDICT, "mask": v}, 3, 2), VERDICT["mask"], 1, huge=True
    ),
}

FLAGS = {
    "CorpusSpec:dedupe_isomorphic": lambda v: pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=v),
}

# records the library fills in itself and queries of a finished result: none
# takes a count from a caller that could reach a report
NOT_BOUNDARIES = {
    "BettiTable": "a table graded_betti builds",
    "BettiTable.from_dict": "rebuilds a table from its own JSON form",
    "BettiTable.get": "reads an entry of a finished table",
    "BettiTable.is_linear": "reads the strand of a finished table",
    "CorpusItem": "a record enumerate_corpus builds",
    "ExchangeWitness": "a record the exchange scan builds",
    "LQFailure": "a record the linear-quotients test builds",
    "TheoremCheck": "a record theorem_equivalence builds",
    "ParseError": "an exception that carries a text position",
    "integer_rank": "takes matrix rows; the rank layer is to take internal sparse rows instead",
}

NON_INTEGERS = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=3), st.fractions(), st.decimals()
)


def _integer_parameters():
    """(callable, parameter) for each int- or bool-annotated parameter of an export."""
    found = set()
    for name in pm.__all__:
        obj = getattr(pm, name)
        if not callable(obj):
            continue
        targets = [(name, obj)]
        if inspect.isclass(obj):
            # the class signature stands for __init__; methods and classmethods follow it
            targets += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr, member in vars(obj).items() if attr != "__init__"
                        and isinstance(member, (types.FunctionType, classmethod))]
        for qualified, target in targets:
            try:
                parameters = inspect.signature(target).parameters.values()
            except (TypeError, ValueError):
                continue
            found |= {(qualified, p.name) for p in parameters
                      if re.search(r"\b(int|bool)\b", str(p.annotation))}
    return found


def _exact_ints(obj) -> bool:
    """Whether no __index__ object survives in the fields of a result."""
    if isinstance(obj, Index):
        return False
    if dataclasses.is_dataclass(obj):
        return all(_exact_ints(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return all(map(_exact_ints, obj))
    return True


def test_table_lists_every_integer_parameter():
    listed = {tuple(key.split(":")) for key in [*SLOTS, *FLAGS]}
    missing = {(c, p) for c, p in _integer_parameters()
               if (c, p) not in listed and c not in NOT_BOUNDARIES}
    assert not missing, sorted(missing)


@pytest.mark.parametrize("name", sorted(SLOTS))
@given(value=NON_INTEGERS)
@example(value=True)
@example(value=False)
@example(value=1.5)
@example(value="1")
@example(value=None)
@settings(max_examples=20, deadline=None)
def test_non_integers_are_refused(name, value):
    slot = SLOTS[name]
    if value is None and slot.optional:
        slot.call(value)
        return
    with pytest.raises(pm.PolymatError):
        slot.call(value)


@pytest.mark.parametrize("name", sorted(k for k, s in SLOTS.items() if s.least is not None))
@given(below=st.integers(min_value=1))
@example(below=1)
@settings(max_examples=10, deadline=None)
def test_values_below_the_bound_are_refused(name, below):
    with pytest.raises(pm.PolymatError):
        SLOTS[name].call(SLOTS[name].least - below)


@pytest.mark.parametrize("name", sorted(k for k, s in SLOTS.items() if s.huge))
def test_huge_values_are_refused_before_any_work(name):
    with pytest.raises(pm.PolymatError):
        SLOTS[name].call(2**70)


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_index_objects_give_the_plain_answer(name):
    slot = SLOTS[name]
    got = slot.call(Index(slot.plain))
    assert got == slot.call(slot.plain)
    assert _exact_ints(got)


@pytest.mark.parametrize("name", sorted(FLAGS))
@pytest.mark.parametrize("value", [1, 0, "no", "", None, 1.5, Index(1)])
def test_flags_refuse_everything_but_a_bool(name, value):
    with pytest.raises(pm.InvalidArgumentError):
        FLAGS[name](value)


def test_a_report_writes_an_index_object_as_an_int():
    spec = pm.CorpusSpec(n=Index(2), d=Index(1), start_mask=Index(2))
    parameters = json.loads(pm.run_theorem_suite(spec, jobs=Index(1)).to_json())["parameters"]
    assert parameters == {"n": 2, "d": 1, "mode": "exhaustive", "start_mask": 2}
    assert all(type(v) is int for k, v in parameters.items() if k != "mode")
