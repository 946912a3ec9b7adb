"""The shared state-word table and Hopcroft refinement against slow paths.

Each fast path is compared with the per-word breadth-first search and Moore
loop kept in helpers.py, on the corpus, on the Cayley, palindrome and
identity machines of small groups, and on seeded random machines, each with
its dual.
"""

import itertools
import random

import pytest

import mealyforge as mf
from helpers import (
    make,
    oracle_free_check,
    oracle_minimize,
    oracle_signature,
    oracle_torsion,
    rand_bireversible,
    rand_invertible,
    rand_machine,
)


def _machines(corpus_machines):
    out = dict(corpus_machines)
    groups = {
        "z2": mf.GroupTable.cyclic(2),
        "z3": mf.GroupTable.cyclic(3),
        "klein": mf.GroupTable.klein(),
        "s3": mf.GroupTable.symmetric3(),
    }
    for g, group in groups.items():
        out[g + ".cay"] = mf.cayley_machine(group)
        out[g + ".pal"] = mf.palindrome_machine(group)
        out[g + ".id"] = mf.identity_machine_of(group)
    rng = random.Random(3001)
    for i in range(4):
        out["rand%d" % i] = rand_machine(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        out["rinv%d" % i] = rand_invertible(rng, rng.randrange(1, 4), rng.randrange(2, 4))
        out["rbi%d" % i] = rand_bireversible(rng, rng.randrange(2, 4), rng.randrange(2, 4))
    for name in list(out):
        out[name + ".dual"] = mf.dual(out[name])
    return out


@pytest.fixture(scope="module")
def machines(corpus_machines):
    return _machines(corpus_machines)


def _max_len(machine, words=80):
    """Longest length whose positive words number at most ``words`` in all."""
    n = len(machine.states)
    length = 1
    while n > 1 and sum(n**k for k in range(1, length + 2)) <= words:
        length += 1
    return length


def test_action_signature_matches_oracle(machines):
    rng = random.Random(3002)
    for name, machine in machines.items():
        gens = list(machine.states)
        if mf.is_invertible(machine):
            gens += [mf.inverse_name(s) for s in machine.states]
        words = [()]
        for length in range(1, _max_len(machine, 40) + 1):
            words += itertools.product(machine.states, repeat=length)
        words += [
            tuple(rng.choice(gens) for _ in range(rng.randrange(1, 6)))
            for _ in range(12)
        ]
        for w in words:
            assert mf.action_signature(machine, w) == oracle_signature(machine, w), (
                name,
                w,
            )


def test_free_semigroup_check_matches_oracle(machines):
    for name, machine in machines.items():
        max_len = _max_len(machine)
        assert mf.free_semigroup_check(machine, max_len) == oracle_free_check(
            machine, max_len
        ), name


def _torsion_size(machine, nodes=300):
    """(max_len, max_exp): powers of at most about ``nodes`` state words."""
    m = len(machine.alphabet)
    if m == 1:
        return 2, 6
    total = 1
    while m ** (total + 1) <= nodes:
        total += 1
    max_len = 2 if total >= 6 else 1
    return max_len, max(total // max_len, 2)


def test_torsion_search_matches_oracle(machines):
    for name, machine in machines.items():
        max_len, max_exp = _torsion_size(machine)
        witnesses = mf.torsion_search(machine, max_len, max_exp)
        assert [(w.word, w.index, w.period) for w in witnesses] == oracle_torsion(
            machine, max_len, max_exp
        ), name


def test_minimize_matches_oracle(machines):
    rng = random.Random(3003)
    for name, machine in machines.items():
        expected = oracle_minimize(machine)
        assert mf.minimize(machine) == expected, name
        # The same quotient with its states listed in another order.
        perm = list(range(len(expected.states)))
        rng.shuffle(perm)
        where = {q: i for i, q in enumerate(perm)}
        shuffled = mf.MealyMachine.from_tables(
            tuple(expected.states[q] for q in perm),
            expected.alphabet,
            [[where[t] for t in expected.transitions[q]] for q in perm],
            [expected.outputs[q] for q in perm],
        )
        assert mf.machine_isomorphic(mf.minimize(machine), shuffled), name


def _isomorphic_by_enumeration(m1, m2):
    n = len(m1.states)
    if len(m2.states) != n or tuple(m1.alphabet) != tuple(m2.alphabet):
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            m1.outputs[q] == m2.outputs[perm[q]]
            and all(
                perm[t] == m2.transitions[perm[q]][a]
                for a, t in enumerate(m1.transitions[q])
            )
            for q in range(n)
        ):
            return True
    return False


def test_machine_isomorphic_matches_enumeration():
    rng = random.Random(3004)
    agree = {True: 0, False: 0}
    for _ in range(300):
        n, m = rng.randrange(1, 5), rng.randrange(1, 3)
        m1 = rand_machine(rng, n, m)
        # Same output rows in a shuffled order, random transitions.
        perm = list(range(n))
        rng.shuffle(perm)
        where = {q: i for i, q in enumerate(perm)}
        if rng.random() < 0.5:  # a renamed copy
            transitions = [[where[t] for t in m1.transitions[q]] for q in perm]
        else:
            transitions = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
        m2 = make(n, m, transitions, [m1.outputs[q] for q in perm])
        expected = _isomorphic_by_enumeration(m1, m2)
        assert mf.machine_isomorphic(m1, m2) == expected
        agree[expected] += 1
    assert agree[True] and agree[False]


def test_machine_isomorphic_equal_rows_not_isomorphic():
    # Every state of both machines acts trivially, so the refinement puts
    # all four states in one class; only the transitions tell them apart.
    loops = make(2, 2, [[0, 1], [1, 1]], [[0, 1], [0, 1]])
    swaps = make(2, 2, [[0, 0], [0, 1]], [[0, 1], [0, 1]])
    assert mf.minimize(loops).states == ("s0",)
    assert mf.minimize(swaps).states == ("s0",)
    assert not mf.machine_isomorphic(loops, swaps)
    assert mf.machine_isomorphic(loops, loops)
    # Equal output rows, but the refinement separates the states.
    flip = make(2, 2, [[1, 1], [0, 0]], [[0, 1], [0, 1]])
    split = make(2, 2, [[0, 0], [1, 1]], [[0, 1], [1, 0]])
    other = make(2, 2, [[1, 1], [1, 1]], [[0, 1], [1, 0]])
    assert mf.machine_isomorphic(flip, flip)
    assert not mf.machine_isomorphic(split, other)


def test_refine_is_the_coarsest_stable_partition():
    rng = random.Random(3005)
    for _ in range(200):
        n, m = rng.randrange(1, 30), rng.randrange(1, 4)
        targets = [tuple(rng.randrange(n) for _ in range(m)) for _ in range(n)]
        keys = [rng.randrange(3) for _ in range(n)]
        cls = mf.machines.refine(targets, keys)
        # Moore's fixpoint, computed naively.
        labels = list(keys)
        while True:
            rows = [(labels[i],) + tuple(labels[t] for t in targets[i]) for i in range(n)]
            number = {}
            new = [number.setdefault(row, len(number)) for row in rows]
            if len(number) == len(set(labels)):
                break
            labels = new
        assert all(
            (cls[i] == cls[j]) == (labels[i] == labels[j])
            for i in range(n)
            for j in range(n)
        )
        first = {}
        assert cls == [first.setdefault(c, len(first)) for c in cls]


def test_state_word_table_shares_prefixes(grigorchuk):
    table = mf.machines.StateWordTable(mf.machines.SignedTables(grigorchuk))
    codes = [grigorchuk.states.index(s) for s in ("a", "b", "c")]
    abc = table.word(codes)
    assert table.word(codes[:2]) == table.prefix[abc]
    assert table.word(codes[2:], start=table.word(codes[:2])) == abc
    assert len(table) == 4  # the empty word, a, ab, abc
    table.close()
    for i in range(len(table)):
        word = []
        j = i
        while j:
            word.append(table.last[j])
            j = table.prefix[j]
        names = [table.tables.state_name(c) for c in reversed(word)]
        for a, x in enumerate(grigorchuk.alphabet):
            out, nxt = mf.act_pair(grigorchuk, names, (x,))
            assert grigorchuk.alphabet[table.outs[i][a]] == out[0]
            assert table.targets[i][a] == table.word(
                [table.tables.state_code(s) for s in nxt]
            )


def test_table_budget_counts_nodes(grigorchuk, odometer):
    # Grigorchuk's torsion at length 1, exponent 3 fills 14 nodes.
    assert mf.torsion_search(grigorchuk, 1, 3, budget=14) == []
    with pytest.raises(mf.BudgetExceeded) as info:
        mf.torsion_search(grigorchuk, 1, 3, budget=13)
    assert info.value.partial == {"max_len": 1, "max_exp": 2, "witnesses": []}
    with pytest.raises(mf.BudgetExceeded):
        mf.action_signature(mf.dual(grigorchuk), ("0", "1") * 3, budget=10)


def test_partial_results_are_answers_to_smaller_searches(machines):
    for name in ("z3.cay", "klein.pal", "odometer", "identity2", "rinv1"):
        machine = machines[name]
        full = mf.torsion_search(machine, 2, 5)
        for budget in range(1, 400, 7):
            try:
                assert mf.torsion_search(machine, 2, 5, budget=budget) == full
                break
            except mf.BudgetExceeded as exc:
                partial = exc.partial
                assert partial["max_len"] == 2
                assert partial["witnesses"] == mf.torsion_search(
                    machine, 2, partial["max_exp"]
                )
    for name in ("z2.cay.dual", "z3.pal.dual", "odometer"):
        machine = machines[name]
        for budget in range(1, 200, 5):
            try:
                mf.free_semigroup_check(machine, 4, budget=budget)
                break
            except mf.BudgetExceeded as exc:
                free_up_to = exc.partial["free_up_to"]
                assert exc.partial["collision"] is None
                assert mf.free_semigroup_check(machine, free_up_to) is None
