"""Integer-coded Stallings folding against the string-named folding it replaced.

``graphs.stallings_automaton`` reads each reduced generator into the folded
graph and attaches only its unread middle; ``fold``, ``core`` and ``basis``
share its integer kernel.  Each is checked against the old flower folding
kept in helpers.py, on seeded random generator sets and graphs, and on the
stabilizer bases of the corpus machines and of the Cayley, palindrome and
identity machines of small groups and their duals.
"""

import itertools
import random

import pytest

import mealyforge as mf
from helpers import oracle_basis, oracle_core, oracle_fold, oracle_stallings
from mealyforge.levels import _stabilizer_generators


def _random_word(rng, labels):
    word = tuple(rng.choice(labels) for _ in range(rng.randrange(0, 7)))
    kind = rng.randrange(4)
    if kind == 0 and word:  # conjugate-like, not cyclically reduced
        x = rng.choice(labels)
        word = (x,) + word + (mf.inverse_name(x),)
    elif kind == 1:  # cancels completely
        word = word + mf.invert_word(word)
    return word


def test_random_generator_sets_match_the_flower_oracle():
    rng = random.Random(7001)
    for trial in range(2000):
        labels = mf.signed_labels(("a", "b", "c")[: 2 + trial % 2])
        gens = [_random_word(rng, labels) for _ in range(rng.randrange(0, 5))]
        expected = oracle_stallings(gens, labels)
        expected_basis = oracle_basis(expected)
        for seed in (None,) + tuple(range(10)):
            got = mf.stallings_automaton(gens, labels, order_seed=seed)
            assert got == expected, (gens, seed)
            assert mf.basis(got) == expected_basis, (gens, seed)


def _random_graph(rng, labels):
    """A connected edge list on named vertices: a random tree plus chords."""
    n = rng.randrange(1, 8)
    names = ["v%d" % i for i in range(n)]
    edges = [(names[rng.randrange(i)], rng.choice(labels), names[i]) for i in range(1, n)]
    edges += [(rng.choice(names), rng.choice(labels), rng.choice(names))
              for _ in range(rng.randrange(0, 6))]
    rng.shuffle(edges)
    return names, edges


def test_fold_and_core_match_the_oracle():
    rng = random.Random(7002)
    for trial in range(500):
        labels = mf.signed_labels(("a", "b", "c")[: 2 + trial % 2])
        names, edges = _random_graph(rng, labels)
        base = rng.choice(names)
        expected = oracle_fold(names, edges, base, labels)
        for seed in (None, 0, 1, 2):
            folded = mf.fold(names, edges, base, labels, order_seed=seed)
            assert folded == expected, (edges, seed)
        assert mf.core(folded) == oracle_core(expected)
        assert mf.basis(folded) == oracle_basis(expected)


def _machines(corpus_machines):
    out = dict(corpus_machines)
    groups = {
        "z2": mf.GroupTable.cyclic(2),
        "z3": mf.GroupTable.cyclic(3),
        "klein": mf.GroupTable.klein(),
        "s3": mf.GroupTable.symmetric3(),
    }
    for g, group in groups.items():
        for kind, build in (
            ("cay", mf.cayley_machine),
            ("pal", mf.palindrome_machine),
            ("id", mf.identity_machine_of),
        ):
            machine = build(group)
            out["%s.%s" % (g, kind)] = machine
            out["%s.%s.dual" % (g, kind)] = mf.dual(machine)
    return {name: m for name, m in out.items() if mf.is_invertible(m)}


def _cases(corpus_machines):
    """(name, machine, word) for every word up to length 4 over binary
    alphabets and 3 over larger ones, then the two long corpus words.

    The old folding takes about 75 ms a word on the 216-vertex components
    of the Cayley machine of S3 and of its dual, so there the length-3
    words are a seeded sample of 18 of the 216.
    """
    rng = random.Random(7003)
    for name, machine in _machines(corpus_machines).items():
        max_len = 4 if len(machine.alphabet) == 2 else 3
        for k in range(1, max_len + 1):
            words = list(itertools.product(machine.alphabet, repeat=k))
            if name.startswith("s3.cay") and k == 3:
                words = rng.sample(words, 18)
            for word in words:
                yield name, machine, word
    yield "grigorchuk", corpus_machines["grigorchuk"], ("0",) * 7
    yield "odometer", corpus_machines["odometer"], ("1",) * 8


def test_stabilizer_bases_fold_back_to_their_components(corpus_machines):
    seen_kinds = set()
    for name, machine, word in _cases(corpus_machines):
        labels = mf.signed_labels(machine.states)
        component = mf.level_component(machine, word)
        aut = component.input_automaton()
        assert mf.basis(aut) == oracle_basis(aut), (name, word)
        gens = _stabilizer_generators(component)
        got = mf.stallings_automaton(gens, labels)
        expected = oracle_stallings(gens, labels)
        assert got == expected, (name, word)
        assert mf.basis(got) == oracle_basis(expected), (name, word)
        # Read back in the path convention, the basis folds to the component.
        reading = mf.stallings_automaton([tuple(reversed(g)) for g in gens], labels)
        assert mf.automaton_canonical_form(reading) == mf.automaton_canonical_form(aut)
        assert len(reading.vertices) == component.size
        seen_kinds.add(name)
    assert gens == mf.schreier_stabilizer_generators(machine, word)
    assert {"grigorchuk", "odometer", "s3.cay", "klein.pal.dual", "z3.id"} <= seen_kinds


def test_unknown_labels_raise():
    labels = mf.signed_labels(("a", "b"))
    with pytest.raises(mf.UnknownSymbol, match="'z'"):
        mf.stallings_automaton([("a", "z"), ("b",)], labels)
    with pytest.raises(mf.UnknownSymbol, match="'z'"):
        mf.fold(("0", "1"), [("0", "a", "1"), ("1", "z", "0")], "0", labels)
    foreign = mf.InverseAutomaton(("0",), labels, {("0", "z"): "0"}, "0")
    with pytest.raises(mf.UnknownSymbol, match="'z'"):
        mf.basis(foreign)
    with pytest.raises(mf.UnknownSymbol, match="'a\\^-1'"):
        mf.stallings_automaton([("a",)], ("a", "b"))


def test_norm_uses_the_shared_union_find(corpus_machines):
    parent = list(range(5))
    for a, b in ((0, 1), (3, 4), (1, 4)):
        parent[mf.graphs.find(parent, a)] = mf.graphs.find(parent, b)
    assert len({mf.graphs.find(parent, v) for v in range(5)}) == 2
    assert mf.norm(corpus_machines["grigorchuk"]) == 5
