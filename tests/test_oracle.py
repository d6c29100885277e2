import itertools

import pytest

from polygraph import oracle
from polygraph.builtin import all_mono_graphs, builtin
from polygraph.gproduct import identity, make_element

from conftest import BUILTIN_NAMES, word_element


def test_bound_exceeded(monkeypatch):
    # complete graph on 3 vertices: class of x1 x2 x3 has 6 members
    k3 = builtin("k3")
    monkeypatch.setattr(oracle, "MAX_CLASS", 3)
    with pytest.raises(oracle.BoundExceeded):
        oracle.letter_shuffle_class(k3, ("x1", "x2", "x3"))


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


@pytest.mark.parametrize("gp", [builtin(name) for name in BUILTIN_NAMES] + all_mono_graphs(3))
def test_elements_up_to_in_least_word_order(gp):
    """Every element of at most 4 letters is listed once, in shortlex order of
    its least word (letters ranked in declaration order)."""
    rank = {l: i for i, l in enumerate(gp.all_letters())}
    classes = [
        oracle.letter_shuffle_class(gp, oracle.element_letters(e))
        for e in oracle.elements_up_to(gp, 4)
    ]
    least = [min((len(w), tuple(rank[l] for l in w)) for w in cls) for cls in classes]
    assert all(u < v for u, v in zip(least, least[1:]))
    words = (w for n in range(5) for w in itertools.product(gp.all_letters(), repeat=n))
    everything = {oracle.letter_shuffle_class(gp, w) for w in words}
    assert len(classes) == len(everything) and set(classes) == everything


def test_hclf_oracle(p3):
    a = make_element(p3, "x2 x1")
    b = make_element(p3, "x2 x3")
    assert oracle.hclf_oracle(a, b) == make_element(p3, "x2")
