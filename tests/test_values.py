import copy
import pickle

import pytest

from polygraph.builtin import builtin
from polygraph.checks import CheckResult
from polygraph.gproduct import ComponentElement, make_element
from polygraph.graph import GraphProduct
from polygraph.ihull import IHPair, Relation, RelationReport, check_relations, generate_presentation
from polygraph.ragroup import GroupWord, group_reduce

NAMES = (
    "GraphProduct", "ComponentElement", "GPElement",
    "IHPair", "Relation", "RelationReport", "GroupWord", "CheckResult",
)


def one_of_each():
    """One instance of each value class, built from scratch on every call."""
    gp = builtin("p3")
    a = make_element(gp, "x2 x1")
    return dict(zip(NAMES, (
        gp, a.expr[0], a, IHPair(a, a),
        generate_presentation(gp)[0], check_relations(builtin("single")),
        group_reduce(gp, "x1 x2^-1"), CheckResult("lclm", True, "12 comparisons"),
    )))


@pytest.mark.parametrize("name", NAMES)
def test_value_semantics(name):
    x, y = one_of_each()[name], one_of_each()[name]
    assert type(x).__name__ == name
    assert x is not y and x == y and hash(x) == hash(y)
    assert not x != y
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(y, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


def test_element_hashes_skip_the_graph(monkeypatch):
    """Elements compare their graph but hash only their syllables, since
    hashing a GraphProduct hashes every vertex and edge."""
    gp = builtin("p3")
    a = make_element(gp, "x2 x1")
    values = (a, IHPair(a, a), group_reduce(gp, "x1 x2^-1"))

    def refuse(self):
        raise AssertionError("GraphProduct hashed")

    monkeypatch.setattr(GraphProduct, "__hash__", refuse)
    for x in values:
        hash(x)


def test_field_values_decide_equality():
    assert ComponentElement("x1", 5) != ComponentElement("x1", 4)
    assert ComponentElement("x1", 5) != ComponentElement("x2", 5)
    gp = builtin("p3")
    a, b = make_element(gp, "x1"), make_element(gp, "x2")
    assert IHPair(a, b) != IHPair(b, a)


def test_different_classes_with_equal_fields_are_unequal():
    gp = builtin("p3")
    a, b = make_element(gp, "x1"), make_element(gp, "x2")
    assert IHPair(a, b) != GroupWord(a, b)
    assert GroupWord(a, b) != IHPair(a, b)
    assert Relation(1, ()) != RelationReport(1, ())
    assert ComponentElement("x1", 5) != ("x1", 5)
    assert Relation(1, ()) != (1, ())


def test_repr():
    assert repr(ComponentElement("x1", 5)) == "ComponentElement(vertex='x1', payload=5)"
    gp = builtin("single")
    assert repr(gp) == "GraphProduct(entries=(('x', None),), edges=frozenset())"
