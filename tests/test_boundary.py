"""The integer, monomial and text rules at the public boundary.

Every exported callable or constructor with an int- or bool-annotated
parameter has its slots in SLOTS or FLAGS, or is named in NOT_BOUNDARIES
with the reason it takes no count from a caller.  A slot refuses every
value that is not an integer, a bool included, and every value below its
bound, with a PolymatError; an object with __index__ gives the answer of
the equal plain int and is stored as that int.

Likewise every Monomial- or VariableOrder-annotated parameter is in
MONOMIAL_SLOTS, and every str-annotated one in TEXTS.  A monomial slot
refuses a stand-in object that carries the attributes the code reads, a
plain tuple and None with InvalidArgumentError, a value from another ring
with AmbientMismatchError and, for a sequence, an empty one with
EmptyIdealError.

Every MonomialIdeal-, MonomialSet- or CorpusSpec-annotated parameter is in
RECORD_SLOTS.  A record slot refuses None, a stand-in that carries the
attributes the code reads and a record of another type with
InvalidArgumentError.
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
from polymat import quotients

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
TABLE = pm.graded_betti(I("x1^2 + x1*x2"))


def _report(runner):
    return lambda v: runner(SPEC, jobs=v).to_json()


SLOTS = {
    "Monomial:exponents": Slot(lambda v: pm.Monomial((v, 1)), 2, 0),
    "VariableOrder:perm": Slot(lambda v: pm.VariableOrder((v, 1)), 2, 1, huge=True),
    "VariableOrder.identity:n": Slot(pm.VariableOrder.identity, 3, 1, huge=True),
    "MonomialIdeal:n": Slot(lambda v: pm.MonomialIdeal(v, [M("x1*x2", 2)]), 2, 1, huge=True),
    "MonomialIdeal.localize:off": Slot(lambda v: IDEAL.localize([v]), 2, 1, huge=True),
    "MonomialIdeal.__pow__:e": Slot(lambda v: IDEAL ** v, 2, 0),
    "unit_monomial:n": Slot(pm.unit_monomial, 3, 1, huge=True),
    "unit_ideal:n": Slot(pm.unit_ideal, 3, 1, huge=True),
    "variable_monomial:var": Slot(lambda v: pm.variable_monomial(v, 3), 2, 1, huge=True),
    "variable_monomial:n": Slot(lambda v: pm.variable_monomial(1, v), 3, 1, huge=True),
    "all_variable_orders:n": Slot(lambda v: list(pm.all_variable_orders(v)), 3, 1, huge=True),
    "MonomialSet:n": Slot(lambda v: pm.MonomialSet(v, 2, [M("x1*x2", 2)]), 2, 1, huge=True),
    "MonomialSet:d": Slot(lambda v: pm.MonomialSet(2, v, [M("x1*x2", 2)]), 2, 0, huge=True),
    "monomials_of_degree:n": Slot(lambda v: pm.monomials_of_degree(v, 2), 3, 1, huge=True),
    "monomials_of_degree:d": Slot(lambda v: pm.monomials_of_degree(3, v), 2, 0, huge=True),
    "iterated_shadow:depth": Slot(lambda v: pm.iterated_shadow(LAYER, v), 2, 0),
    "is_completely_lexsegment:bound": Slot(
        lambda v: pm.is_completely_lexsegment(M("x1^2", 3), M("x1*x3", 3), v), 2, 1, optional=True
    ),
    "parse_monomial:n": Slot(
        lambda v: pm.parse_monomial("x1*x2", v), 3, 1, optional=True, huge=True
    ),
    "parse_ideal:n": Slot(lambda v: pm.parse_ideal("x1 + x2", v), 3, 1, optional=True, huge=True),
    "load_ideal_text:n": Slot(
        lambda v: pm.load_ideal_text("x1 + x2", v), 3, 1, optional=True, huge=True
    ),
    "load_ideal_text:n (JSON)": Slot(
        lambda v: pm.load_ideal_text('{"n": 2, "gens": [[1, 0]]}', v),
        2, 1, optional=True, huge=True,
    ),
    "ideal_from_mask:n": Slot(lambda v: pm.ideal_from_mask(v, 2, 5), 3, 1, huge=True),
    "ideal_from_mask:d": Slot(lambda v: pm.ideal_from_mask(3, v, 5), 2, 0, huge=True),
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
    "BettiTable.get:i": Slot(lambda v: TABLE.get(v, 2), 0, 0),
    "BettiTable.get:j": Slot(lambda v: TABLE.get(0, v), 2, 0),
    "BettiTable.is_linear:d": Slot(TABLE.is_linear, 2, 0),
}

FLAGS = {
    "CorpusSpec:dedupe_isomorphic": lambda v: pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=v),
}

# records the library fills in itself: none takes a count, a monomial or a
# text from a caller that could reach a report
NOT_BOUNDARIES = {
    "BettiTable": "a table graded_betti builds",
    "BettiTable.from_dict": "rebuilds a table from its own JSON form",
    "CheckReport": "a report the suite runners build",
    "ConjectureProbe": "a record conjecture_probe builds",
    "CorpusItem": "a record enumerate_corpus builds",
    "ExchangeWitness": "a record the exchange scan builds",
    "LQFailure": "a record the linear-quotients test builds",
    "TheoremCheck": "a record theorem_equivalence builds",
    "ParseError": "an exception that carries a text position",
}

NON_INTEGERS = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=3), st.fractions(), st.decimals()
)


def _annotated_parameters(types_pattern):
    """(callable, parameter) for each parameter of an export whose annotation
    names one of the types in the regular expression."""
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
                      if re.search(rf"\b({types_pattern})\b", str(p.annotation))}
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
    missing = {(c, p) for c, p in _annotated_parameters("int|bool")
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


def _stand_in(value):
    """An object that carries the attributes the code reads of a Monomial or a
    VariableOrder, but is neither."""
    if isinstance(value, pm.VariableOrder):
        return types.SimpleNamespace(perm=value.perm, n=value.n, positions=value.positions)
    return types.SimpleNamespace(exponents=value.exponents, n=value.n, degree=value.degree,
                                 support=value.support, is_unit=value.is_unit)


class MonomialSlot(NamedTuple):
    call: Callable[[Any], Any]  # the entry point with the slot set to the value
    valid: Any  # a valid Monomial or VariableOrder for the slot
    other_ring: Any  # the same kind of value from another ring, or None when no ring is shared
    sequence: bool = False  # the slot takes a sequence of monomials


X2, X3 = M("x1*x2", 2), M("x1*x2", 3)
U, V = M("x1^2", 3), M("x1*x3", 3)


def _pair(name, u, v, other):
    """The two slots of a function of two monomials."""
    function = getattr(pm, name)
    return {f"{name}:u": MonomialSlot(lambda w: function(w, v), u, other),
            f"{name}:v": MonomialSlot(lambda w: function(u, w), v, other)}


MONOMIAL_SLOTS = {
    "Monomial.divides:other": MonomialSlot(lambda w: X2.divides(w), X2, X3),
    "Monomial.__mul__:other": MonomialSlot(lambda w: X2 * w, X2, X3),
    **_pair("monomial_lcm", X2, X2, X3),
    **_pair("colon_monomial", X2, X2, X3),
    **_pair("lexsegment", U, V, X2),
    **_pair("arnehe_criterion", U, V, X2),
    **_pair("is_completely_lexsegment", U, V, X2),
    "final_segment_ideal:v": MonomialSlot(pm.final_segment_ideal, V, None),
    "MonomialIdeal:gens": MonomialSlot(lambda w: pm.MonomialIdeal(2, w), X2, X3, True),
    "MonomialSet:elems": MonomialSlot(lambda w: pm.MonomialSet(2, 2, w), X2, X3, True),
    "linear_quotients_failure:seq": MonomialSlot(pm.linear_quotients_failure, X2, X3, True),
    "has_linear_quotients:seq": MonomialSlot(pm.has_linear_quotients, X2, X3, True),
    "has_quotients_with_linear_resolution:seq": MonomialSlot(
        pm.has_quotients_with_linear_resolution, X2, X3, True
    ),
    "sort_generators:order": MonomialSlot(
        lambda w: pm.sort_generators(IDEAL, "lex", w),
        pm.VariableOrder((3, 2, 1)), pm.VariableOrder((2, 1)),
    ),
}


def _refusals(slot):
    """The values the slot must refuse, each with the rule's error, by label."""
    plain = getattr(slot.valid, "exponents", None) or slot.valid.perm
    cases = {"stand-in": (_stand_in(slot.valid), pm.InvalidArgumentError),
             "tuple": (plain, pm.InvalidArgumentError),
             "None": (None, pm.InvalidArgumentError)}
    if slot.other_ring is not None:
        cases["other ring"] = (slot.other_ring, pm.AmbientMismatchError)
    if not slot.sequence:
        return cases
    # a sequence holds each bad entry after a good one; the bare tuple and None stay
    return {**{f"[valid, {label}]": ([slot.valid, value], error)
               for label, (value, error) in cases.items()},
            "tuple": cases["tuple"], "None": cases["None"],
            "empty": ([], pm.EmptyIdealError)}


MONOMIAL_CASES = [(name, label) for name in sorted(MONOMIAL_SLOTS)
                  for label in _refusals(MONOMIAL_SLOTS[name])]

TEXTS = {
    "parse_monomial:text": pm.parse_monomial,
    "parse_ideal:text": pm.parse_ideal,
    "load_ideal_text:text": pm.load_ideal_text,
    "parse_variable_order:text": pm.parse_variable_order,
    "sort_generators:kind": lambda v: pm.sort_generators(IDEAL, v, pm.VariableOrder((1, 2, 3))),
    "lq_all_orders_failure:kind": lambda v: pm.lq_all_orders_failure(IDEAL, v),
    "has_lq_all_orders:kind": lambda v: pm.has_lq_all_orders(IDEAL, v),
    "CorpusSpec:mode": lambda v: pm.CorpusSpec(n=3, d=2, mode=v),
}


@pytest.mark.parametrize("types_pattern, table", [
    ("Monomial|VariableOrder", MONOMIAL_SLOTS), ("str", TEXTS),
])
def test_tables_list_every_monomial_and_text_parameter(types_pattern, table):
    listed = {tuple(key.split(":")) for key in table}
    missing = {(c, p) for c, p in _annotated_parameters(types_pattern)
               if (c, p) not in listed and c not in NOT_BOUNDARIES}
    assert not missing, sorted(missing)


@pytest.mark.parametrize("name", sorted(MONOMIAL_SLOTS))
def test_monomial_slots_take_their_valid_value(name):
    slot = MONOMIAL_SLOTS[name]
    slot.call([slot.valid] if slot.sequence else slot.valid)


@pytest.mark.parametrize("name, label", MONOMIAL_CASES)
def test_monomial_rule_refuses(name, label):
    value, error = _refusals(MONOMIAL_SLOTS[name])[label]
    with pytest.raises(error):
        MONOMIAL_SLOTS[name].call(value)


@pytest.mark.parametrize("name", sorted(TEXTS))
@pytest.mark.parametrize("value", [None, 1, b"x1"])
def test_texts_refuse_everything_but_a_str(name, value):
    with pytest.raises(pm.PolymatError):
        TEXTS[name](value)


def test_sequences_refuse_a_value_that_is_not_iterable():
    for value in (5, None):
        for call in (pm.VariableOrder, pm.Monomial, IDEAL.localize):
            with pytest.raises(pm.InvalidArgumentError, match="is not iterable"):
                call(value)


class RecordSlot(NamedTuple):
    call: Callable[[Any], Any]  # the entry point with the slot set to the value
    valid: Any  # a valid MonomialIdeal, MonomialSet or CorpusSpec for the slot


def _ideal_slot(name, *rest):
    function = getattr(pm, name)
    return {f"{name}:I": RecordSlot(lambda v: function(v, *rest), IDEAL)}


def _spec_slot(name):
    function = getattr(pm, name)
    return {f"{name}:spec": RecordSlot(lambda v: function(v).to_json(), SPEC)}


RECORD_SLOTS = {
    "MonomialIdeal.__add__:other": RecordSlot(lambda v: IDEAL + v, IDEAL),
    "MonomialIdeal.__mul__:other": RecordSlot(lambda v: IDEAL * v, IDEAL),
    **_ideal_slot("exchange_failure"),
    **_ideal_slot("symmetric_exchange_failure"),
    **_ideal_slot("is_polymatroidal"),
    **_ideal_slot("satisfies_symmetric_exchange"),
    **_ideal_slot("is_matroidal"),
    **_ideal_slot("sort_generators", "lex", pm.VariableOrder((1, 2, 3))),
    **_ideal_slot("lq_all_orders_failure", "lex"),
    **_ideal_slot("has_lq_all_orders", "lex"),
    **_ideal_slot("theorem_equivalence"),
    **_ideal_slot("conjecture_probe"),
    **_ideal_slot("graded_betti"),
    **_ideal_slot("taylor_strand_betti"),
    **_ideal_slot("has_linear_resolution"),
    **_ideal_slot("ideal_to_json_dict"),
    "shadow:T": RecordSlot(pm.shadow, LAYER),
    "iterated_shadow:T": RecordSlot(lambda v: pm.iterated_shadow(v, 1), LAYER),
    "is_lexsegment:T": RecordSlot(pm.is_lexsegment, LAYER),
    "enumerate_corpus:spec": RecordSlot(lambda v: list(pm.enumerate_corpus(v)), SPEC),
    **_spec_slot("run_theorem_suite"),
    **_spec_slot("run_conjecture_search"),
    **_spec_slot("run_localization_probe"),
}


def _record_refusals(valid):
    """None, a stand-in and a record of another type, by label."""
    if isinstance(valid, pm.MonomialIdeal):
        stand_in = types.SimpleNamespace(n=valid.n, gens=valid.gens, is_unit=valid.is_unit,
                                         is_equigenerated=valid.is_equigenerated)
        other = pm.monomials_of_degree(valid.n, 2)
    elif isinstance(valid, pm.MonomialSet):
        stand_in = types.SimpleNamespace(n=valid.n, d=valid.d, elems=valid.elems,
                                         top=valid.top, bottom=valid.bottom)
        other = pm.MonomialIdeal(valid.n, valid.elems)
    else:
        fields = dataclasses.asdict(valid)
        stand_in = types.SimpleNamespace(**fields, to_json_dict=valid.to_json_dict)
        other = fields
    return {"None": None, "stand-in": stand_in, "other record": other}


RECORD_CASES = [(name, label) for name in sorted(RECORD_SLOTS)
                for label in _record_refusals(RECORD_SLOTS[name].valid)]


def test_record_table_lists_every_record_parameter():
    listed = {tuple(key.split(":")) for key in RECORD_SLOTS}
    found = {(c, p) for c, p in _annotated_parameters("MonomialIdeal|MonomialSet|CorpusSpec")
             if c not in NOT_BOUNDARIES}
    assert found == listed, sorted(found ^ listed)


@pytest.mark.parametrize("name", sorted(RECORD_SLOTS))
def test_record_slots_take_their_valid_value(name):
    slot = RECORD_SLOTS[name]
    slot.call(slot.valid)


@pytest.mark.parametrize("name, label", RECORD_CASES)
def test_type_rule_refuses(name, label):
    slot = RECORD_SLOTS[name]
    value = _record_refusals(slot.valid)[label]
    with pytest.raises(pm.InvalidArgumentError, match=f"is not a {type(slot.valid).__name__}$"):
        slot.call(value)


@pytest.mark.parametrize("call, expected", [
    (lambda: quotients.qwlr_by_order(None, "lex", []), "MonomialIdeal"),
    (lambda: pm.iterated_shadow(None, 0), "MonomialSet"),
    (lambda: pm.enumerate_corpus(None), "CorpusSpec"),
], ids=["qwlr_by_order with no orders", "iterated_shadow at depth 0",
        "enumerate_corpus before its first item"])
def test_type_rule_refuses_where_no_field_is_read(call, expected):
    with pytest.raises(pm.InvalidArgumentError, match=f"None is not a {expected}$"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: quotients.qwlr_by_order(I("x1*x2"), "bogus", []), pm.InvalidArgumentError),
    (lambda: quotients.qwlr_by_order(I("x1^2 + x2"), "lex", []), pm.NotEquigeneratedError),
], ids=["unknown kind", "mixed degrees"])
def test_qwlr_by_order_refuses_with_no_orders(call, error):
    # one order would refuse both through sort_generators; none must refuse them too
    with pytest.raises(error):
        call()
