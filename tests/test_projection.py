"""lclm, hclf, max_above and natural_le at 200-2,000 letters, judged by the
trace-monoid model of ``projection.py`` on seeded mono and mixed graphs."""

import random

import pytest

from polygraph import oracle
from polygraph.builtin import all_mono_graphs, builtin
from polygraph.gproduct import hclf, lclm, make_element
from polygraph.graph import parse_graph
from polygraph.ihull import IHPair, ih_inverse, ih_multiply, max_above, natural_le

from projection import TraceModel

LENGTHS = (200, 700, 2000)  # letters of the long part of each case


def model(gp):
    return TraceModel(gp.letter_vertex, gp.edges)


def seeded_graph(rng, mixed):
    """3-8 vertices at a random edge density; in a mixed graph about half the
    vertices carry a free monoid on 1-3 letters."""
    n = rng.randint(3, 8)
    lines = []
    for i in range(1, n + 1):
        if mixed and rng.random() < 0.5:
            lines.append(f"vertex u{i} free {' '.join(f'{c}{i}' for c in 'pqr'[:rng.randint(1, 3)])}")
        else:
            lines.append(f"vertex x{i} mono")
    names = [line.split()[1] for line in lines]
    density = rng.uniform(0.3, 0.9)
    lines += [f"edge {names[i]} {names[j]}" for i in range(n) for j in range(i + 1, n)
              if rng.random() < density]
    return parse_graph("\n".join(lines) + "\n")


def graphs():
    rng = random.Random(23)
    return [seeded_graph(rng, mixed=k % 2 == 1) for k in range(6)]


GRAPH_IDS = [f"{'mixed' if k % 2 else 'mono'}{k}" for k in range(6)]


def lclm_cases(gp, rng, n):
    """Pairs (b, c) of words: x*w against y*w for short x and y, z^i*w
    against z^j*w for a letter z (a carried syllable outlasts what it meets),
    u*w against v*w for u and v over two sets of vertices that commute with
    each other (a long s or t), and two unrelated words."""
    letters = gp.all_letters()

    def word(k, alphabet=letters):
        return " ".join(rng.choice(alphabet) for _ in range(k))

    w = word(n)
    yield f"{word(rng.randint(1, 4))} {w}", f"{word(rng.randint(1, 4))} {w}"
    z = rng.choice(letters)
    yield f"{z} {w}", f"{z} {z} {z} {w}"
    v0 = rng.choice(gp.vertices)
    near = [v for v in gp.vertices if gp.adjacent(v, v0)]
    if near:
        far = [v for v in gp.vertices if v not in near and all(gp.adjacent(v, u) for u in near)]
        u_letters = [a for v in far for a in gp.letters(v)]
        v_letters = [a for v in near for a in gp.letters(v)]
        yield f"{word(n // 2, u_letters)} {w}", f"{word(n // 2, v_letters)} {w}"
    yield word(n), word(n)


@pytest.mark.parametrize("gp", graphs(), ids=GRAPH_IDS)
def test_lclm_projection(gp):
    judge, rng = model(gp), random.Random(str(gp.entries))
    for n in LENGTHS:
        for b, c in lclm_cases(gp, rng, n):
            res = lclm(make_element(gp, b), make_element(gp, c))
            assert judge.judge_lclm(b, c, res and tuple(map(str, res))) is None


@pytest.mark.parametrize("gp", graphs(), ids=GRAPH_IDS)
def test_hclf_and_max_above_projection(gp):
    judge, rng = model(gp), random.Random(str(gp.entries))
    letters = gp.all_letters()

    def word(k):
        return " ".join(rng.choice(letters) for _ in range(k))

    for n in LENGTHS:
        x = word(n)
        for a, b in ((f"{x} {word(n // 4)}", f"{x} {word(n // 4)}"), (word(n), word(n))):
            ea, eb = make_element(gp, a), make_element(gp, b)
            rest = max_above(IHPair(ea, eb))
            assert judge.judge_hclf(a, b, str(hclf(ea, eb)), str(rest.a), str(rest.b)) is None


def le_cases(gp, rng, n):
    """Pairs (s, t) of printed inverse-hull pairs: [x*c | x*d] against
    [c | d], which holds; [x*c | d] against it, where c divides x*c but d is
    not x*d; and for each lclm case (a, c) with a common multiple
    u*a = w*c, [a | w*d] against [c | d], which holds exactly when u is the
    identity."""
    letters = gp.all_letters()

    def word(k):
        return " ".join(rng.choice(letters) for _ in range(k))

    x, c, d = word(n), word(n), word(n)
    yield (f"{x} {c}", f"{x} {d}"), (c, d)
    yield (f"{x} {c}", d), (c, d)
    for a, c in lclm_cases(gp, rng, n):
        res = lclm(make_element(gp, a), make_element(gp, c))
        if res is not None:
            yield (a, f"{res[1]} {d}"), (c, d)


@pytest.mark.parametrize("gp", graphs(), ids=GRAPH_IDS)
def test_natural_le_projection(gp):
    judge, rng = model(gp), random.Random(str(gp.entries))
    verdicts = set()
    for n in LENGTHS:
        for s, t in le_cases(gp, rng, n):
            res = natural_le(*(IHPair(*(make_element(gp, w) for w in pair)) for pair in (s, t)))
            assert judge.judge_natural_le(s, t, res) is None
            verdicts.add(res)
    assert verdicts == {True, False}


def test_judge_rejects_wrong_answers():
    gp = builtin("mixed")  # u free on p, q; w mono; u and w adjacent
    judge = model(gp)
    assert judge.judge_lclm("p", "w", ("w", "p", "p w")) is None
    assert judge.judge_lclm("p", "q", None) is None
    assert judge.judge_lclm("p", "w", None)  # a common multiple exists
    assert judge.judge_lclm("p", "q", ("q", "p", "q p"))  # none exists
    assert judge.judge_lclm("p", "w", ("w", "p", "w p w"))  # m is not s*b
    assert judge.judge_lclm("p", "w", ("w p", "p p", "w p p"))  # not least
    assert judge.judge_hclf("p w", "p q", "p", "w", "q") is None
    assert judge.judge_hclf("p w", "p q", "1", "p w", "p q")  # not highest
    assert judge.judge_hclf("p w", "p q", "p", "w", "p")  # b is not x*b'
    assert judge.judge_natural_le(("p w", "p q"), ("w", "q"), True) is None
    assert judge.judge_natural_le(("p w", "p q"), ("w", "q"), False)  # x = p
    assert judge.judge_natural_le(("q w", "p q"), ("w", "q"), True)  # p q is not q q
    assert judge.judge_natural_le(("p", "p"), ("w", "1"), True)  # w does not divide p


def short_graphs():
    return [builtin(name) for name in ("p3", "k2_edgeless", "mixed")] + [
        g for n in (2, 3) for g in all_mono_graphs(n)]


def test_judge_agrees_with_natural_le_on_short_words():
    # s <= t exactly when s = ss^-1 t, by products whose lclm the oracles
    # judge on these, so this checks the judge's criterion
    for gp in short_graphs():
        judge = model(gp)
        pairs = [IHPair(a, b) for a in oracle.elements_up_to(gp, 2) for b in oracle.elements_up_to(gp, 1)]
        for s in pairs:
            e = ih_multiply(s, ih_inverse(s))
            for t in pairs:
                text = (str(s.a), str(s.b)), (str(t.a), str(t.b))
                assert judge.judge_natural_le(*text, ih_multiply(e, t) == s) is None, gp


def test_judge_agrees_with_lclm_on_short_words():
    # lclm is judged by the oracles on these, so this checks the judge's criteria
    for gp in short_graphs():
        judge, elems = model(gp), oracle.elements_up_to(gp, 2)
        for b in elems:
            for c in elems:
                res = lclm(b, c)
                assert judge.judge_lclm(str(b), str(c), res and tuple(map(str, res))) is None, gp
