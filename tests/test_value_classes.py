"""Equality, hashing, immutability, defaults and repr of the value classes.

The repr strings are those the classes printed when they were dataclasses;
everything here holds for both implementations.
"""

import copy
import pickle

import pytest

from dnbranch.core import INF, CrystalParams, Node
from dnbranch.crystal import Signature
from dnbranch.dmod import IrreducibleLabel, SocleDecomposition
from dnbranch.io import Document
from dnbranch.oracle import VerificationReport

UNSPLIT = IrreducibleLabel("unsplit", ((1,), ()))
SPLIT_PLUS = IrreducibleLabel("split", ((1,), (1,)), "+")

# (class, positional fields, repr, whether frozen)
CASES = [
    (
        CrystalParams,
        (4, "B", 2, (0, 2)),
        "CrystalParams(e=4, regime='B', l=2, multicharge=(0, 2))",
        True,
    ),
    (
        Signature,
        (1, ((Node(1, 1, 2), "A"),), (), 0, 1),
        "Signature(residue=1, entries=((Node(component=1, row=1, col=2), 'A'),),"
        " reduced=(), eps=0, phi=1)",
        True,
    ),
    (
        IrreducibleLabel,
        ("split", ((1,), (1,)), "+"),
        "IrreducibleLabel(kind='split', rep=((1,), (1,)), sign='+')",
        True,
    ),
    (
        SocleDecomposition,
        (SPLIT_PLUS, (UNSPLIT,)),
        "SocleDecomposition(source=IrreducibleLabel(kind='split', rep=((1,), (1,)), sign='+'),"
        " summands=(IrreducibleLabel(kind='unsplit', rep=((1,), ()), sign=None),))",
        True,
    ),
    (
        VerificationReport,
        ("s", INF, "A", INF, 3, 5, [("x", "y", "z")], 0.25, True),
        "VerificationReport(suite='s', e=inf, regime='A', l=inf, n=3, cases=5,"
        " failures=[('x', 'y', 'z')], elapsed=0.25, truncated=True)",
        False,
    ),
    (
        Document,
        (CrystalParams(4, "B", 2), "labels", [UNSPLIT]),
        "Document(params=CrystalParams(e=4, regime='B', l=2, multicharge=(0, 0)),"
        " kind='labels', data=[IrreducibleLabel(kind='unsplit', rep=((1,), ()), sign=None)])",
        False,
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text, frozen", CASES, ids=IDS)
def test_repr(cls, fields, text, frozen):
    assert repr(cls(*fields)) == text


@pytest.mark.parametrize("cls, fields, text, frozen", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, text, frozen):
    value = cls(*fields)
    # deep copies: equal but not identical fields, so equality compares values
    assert value == cls(*copy.deepcopy(fields))
    assert not value != cls(*copy.deepcopy(fields))
    assert value != fields
    assert value != tuple(fields)
    twin = type("Twin", (cls,), {})(*fields)
    assert value != twin and twin != value
    other = next(c for c in CASES if c[0] is not cls)
    assert value != other[0](*other[1])


@pytest.mark.parametrize("cls, fields, text, frozen", CASES, ids=IDS)
def test_hash_only_when_frozen(cls, fields, text, frozen):
    value = cls(*fields)
    if frozen:
        assert hash(value) == hash(cls(*copy.deepcopy(fields)))
        assert len({value, cls(*copy.deepcopy(fields))}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("cls, fields, text, frozen", CASES, ids=IDS)
def test_assignment(cls, fields, text, frozen):
    value = cls(*fields)
    name = text.split("(", 1)[1].split("=", 1)[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == cls(*fields)
    else:
        setattr(value, name, None)
        assert getattr(value, name) is None


@pytest.mark.parametrize("cls, fields, text, frozen", CASES, ids=IDS)
def test_copies_are_equal(cls, fields, text, frozen):
    value = cls(*fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value


def test_keyword_construction_and_defaults():
    params = CrystalParams(e=4, regime="B", l=2)
    assert params.multicharge == (0, 0)
    assert params == CrystalParams(4, "B", 2, (0, 0))
    label = IrreducibleLabel(kind="unsplit", rep=((1,), ()))
    assert label.sign is None and label.n == 1
    assert SocleDecomposition(source=label, summands=()).summands == ()
    signature = Signature(residue=0, entries=(), reduced=(), eps=0, phi=0)
    assert signature == Signature(0, (), (), 0, 0)
    first = VerificationReport(suite="s", e=4, regime="B", l=2, n=3)
    second = VerificationReport("s", 4, "B", 2, 3)
    assert (first.cases, first.failures, first.elapsed, first.truncated) == (0, [], 0.0, False)
    assert first == second
    first.failures.append(("a", "b", "c"))
    assert second.failures == [] and first != second
    assert first.status == "fail" and second.status == "inconclusive"
    doc = Document(params=params, kind="labels", data=[label])
    assert doc == Document(params, "labels", [label])
