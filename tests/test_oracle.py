import pytest

from polygraph import oracle
from polygraph.builtin import builtin
from polygraph.gproduct import identity, make_element

from conftest import word_element


def test_bound_exceeded():
    # complete graph on 3 vertices: class of x1 x2 x3 has 6 members
    k3 = builtin("k3")
    with pytest.raises(oracle.BoundExceeded):
        oracle.letter_shuffle_class(k3, ("x1", "x2", "x3"), max_size=3)


def test_all_left_divisors_examples(p3):
    a = make_element(p3, "x1 x2")
    names = {str(x) for x in oracle.all_left_divisors(a)}
    assert names == {"1", "x1", "x2", "x1 x2"}

    a = make_element(p3, "x3 x1")
    names = {str(x) for x in oracle.all_left_divisors(a)}
    assert names == {"1", "x3", "x3 x1"}

    assert oracle.all_left_divisors(identity(p3)) == {identity(p3)}


def test_lclm_oracle_examples(p3):
    b, c = make_element(p3, "x1"), make_element(p3, "x2")
    assert oracle.lclm_oracle(b, c, 4) == make_element(p3, "x1 x2")

    assert oracle.lclm_oracle(b, make_element(p3, "x3"), 6) is None

    assert oracle.lclm_oracle(b, b, 3) == b


def test_elements_up_to_deterministic(p3):
    a = oracle.elements_up_to(p3, 3)
    b = oracle.elements_up_to(p3, 3)
    assert a == b
    assert len(a) == len({e.expr for e in a})


def test_words_equal(p3):
    assert oracle.words_equal(p3, ("x2", "x1"), ("x1", "x2"))
    assert not oracle.words_equal(p3, ("x3", "x1"), ("x1", "x3"))
    assert not oracle.words_equal(p3, ("x1",), ("x1", "x1"))


def test_hclf_oracle(p3):
    a = make_element(p3, "x2 x1")
    b = make_element(p3, "x2 x3")
    assert oracle.hclf_oracle(a, b) == make_element(p3, "x2")
