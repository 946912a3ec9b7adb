"""Group tables, Cayley-style machines, and relation bookkeeping."""

import itertools

import pytest

import mealyforge as mf


def test_group_table_cyclic(z3):
    assert z3.order == 3
    assert z3.elements == ("e", "a", "b")
    assert z3.mult("a", "b") == "e"
    assert z3.mult("b", "b") == "a"
    assert z3.inverse("a") == "b"
    assert z3.evaluate(("a", "b")) == "e"
    assert z3.evaluate(("a", "a^-1")) == "e"
    assert z3.evaluate(("b", "b", "b")) == "e"
    assert z3.evaluate(()) == "e"


def test_group_table_klein(klein):
    assert klein.order == 4
    assert klein.mult("a", "b") == "c"
    for g in klein.elements:
        assert klein.inverse(g) == g


def test_group_table_symmetric3():
    s3 = mf.GroupTable.symmetric3()
    assert s3.order == 6
    pairs = [
        (g, h)
        for g in s3.elements
        for h in s3.elements
        if s3.mult(g, h) != s3.mult(h, g)
    ]
    assert pairs


def test_group_table_validation_errors():
    with pytest.raises(mf.NoIdentity):
        mf.group_from_table(("x", "y"), [["y", "x"], ["x", "y"]])
    with pytest.raises(mf.NoInverse):
        mf.group_from_table(("e", "z"), [["e", "z"], ["z", "z"]])
    with pytest.raises(mf.NotAssociative):
        mf.group_from_table(
            ("e", "a", "b"),
            [["e", "a", "b"], ["a", "b", "b"], ["b", "e", "a"]],
        )
    with pytest.raises(mf.UnknownSymbol):
        mf.group_from_table(("e", "a"), [["e", "a"], ["a", "x"]])
    with pytest.raises(mf.UnknownSymbol):
        mf.group_from_table(("e", "a"), [["e", "a"], ["a"]])
    with pytest.raises(mf.UnknownSymbol):
        mf.group_from_table(("e", "e"), [["e", "e"], ["e", "e"]])
    with pytest.raises(mf.UnknownSymbol):
        mf.group_from_table(("e", "a b"), [["e", "a b"], ["a b", "e"]])
    with pytest.raises(mf.UnknownSymbol):
        mf.GroupTable.cyclic(3).index("z")


def test_group_table_order_cap():
    names = ["e"] + ["g%d" % i for i in range(1, 13)]
    rows = [[names[(i + j) % 13] for j in range(13)] for i in range(13)]
    with pytest.raises(ValueError):
        mf.group_from_table(names, rows)
    assert mf.group_from_table(names, rows, max_order=13).order == 13
    assert mf.GroupTable.cyclic(13).order == 13


def test_cayley_machine_tables(z2):
    machine = mf.cayley_machine(z2)
    assert machine.states == ("e", "a")
    assert tuple(machine.alphabet) == ("e", "a")
    assert machine.transitions == ((0, 1), (1, 0))
    assert machine.outputs == ((0, 1), (1, 0))


def test_palindrome_machine_tables(z3):
    machine = mf.palindrome_machine(z3)
    assert machine.transitions == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert machine.outputs == ((0, 2, 1), (0, 2, 1), (0, 2, 1))


def test_identity_machine_tables(z3):
    machine = mf.identity_machine_of(z3)
    assert machine.transitions == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert machine.outputs == ((0, 1, 2), (0, 1, 2), (0, 1, 2))


def test_phi_machine(z3):
    phi = {"e": "e", "a": "b", "b": "a"}
    machine = mf.phi_machine(z3, phi)
    assert machine.outputs == ((0, 2, 1), (0, 2, 1), (0, 2, 1))
    identity_phi = {g: g for g in z3.elements}
    assert mf.phi_machine(z3, identity_phi) == mf.identity_machine_of(z3)
    with pytest.raises(mf.UnknownSymbol):
        mf.phi_machine(z3, {"e": "e"})


def test_cayley_machine_reversibility_profile(z2, z3):
    for group in (z2, z3):
        machine = mf.cayley_machine(group)
        assert mf.is_invertible(machine)
        assert mf.is_reversible(machine)
        assert not mf.is_bireversible(machine)
    assert mf.is_bireversible(mf.palindrome_machine(z3))
    assert mf.is_bireversible(mf.identity_machine_of(z2))


def test_alternating_map(z2, z3):
    assert mf.alternating_map(z2, ("a", "e", "a", "e")) == (
        "a",
        "e^-1",
        "a",
        "e^-1",
    )
    assert mf.alternating_map(z3, ("a", "a")) == ("a", "b^-1")
    with pytest.raises(mf.OddLength):
        mf.alternating_map(z2, ("a", "e", "a"))


def test_relation_recursion_base(z2):
    ledger = mf.relation_recursion(z2, 2, verify_depth=6)
    assert ledger.n_sets[2] == frozenset(
        {("a", "a^-1"), ("a^-1", "a"), ("e", "e^-1"), ("e^-1", "e")}
    )
    assert ledger.v_sets[2] == ledger.n_sets[2] | {("a^-1", "e"), ("e^-1", "a")}
    assert len(ledger.n_sets[4]) == 32
    assert ledger.all_verified


def test_relation_recursion_nonabelian_words_verify():
    s3 = mf.GroupTable.symmetric3()
    ledger = mf.relation_recursion(s3, 2, verify_depth=2)
    assert ledger.all_verified
    machine = mf.dual(mf.cayley_machine(s3))
    for w in sorted(ledger.n_sets[4])[::19]:
        assert mf.is_group_relation_up_to(machine, w, 3)


def test_feeder_word_orbits_stay_relations(z2):
    ledger = mf.relation_recursion(z2, 2)
    machine = mf.dual(mf.cayley_machine(z2))
    for length, words in ledger.v_sets.items():
        if length == 0:
            continue
        for v in words:
            for g in machine.alphabet:
                assert mf.act_transition(machine, v, (g,)) in ledger.n_sets[length]


def test_relation_words_evaluate_to_identity(z2):
    ledger = mf.relation_recursion(z2, 2)
    for words in ledger.n_sets.values():
        for w in words:
            assert z2.evaluate(w) == "e"


def test_relation_words_act_trivially(z2):
    ledger = mf.relation_recursion(z2, 2)
    machine = mf.dual(mf.cayley_machine(z2))
    for w in ledger.n_sets[4]:
        assert mf.is_group_relation_up_to(machine, w, 4)


def test_relation_recursion_budget(z2):
    with pytest.raises(mf.BudgetExceeded):
        mf.relation_recursion(z2, 3, budget=100)


def test_palindromic_diagnostics_abelian(z2, z3, klein):
    for group in (z2, z3, klein):
        report = mf.palindromic_diagnostics(group, max_len=4, level_k=3)
        assert report.palindromic
        assert report.level_orders == {1: group.order, 2: group.order, 3: group.order}
        assert set(report.letter_stabilizer_orders.values()) == {1}


def test_palindromic_diagnostics_nonabelian():
    s3 = mf.GroupTable.symmetric3()
    report = mf.palindromic_diagnostics(s3, max_len=4, level_k=2)
    assert not report.palindromic
    assert report.level_orders == {1: 6, 2: 18}
    assert report.per_length[1] == (2, 2, 2)
    assert report.per_length[3] == (242, 242, 98)
    assert report.letter_stabilizer_orders == dict.fromkeys("erstuv", 1)


def test_identity_machine_group_check(z2, z3):
    report = mf.identity_machine_group_check(z2, k_max=4)
    assert report.level_orders == {1: 2, 2: 2, 3: 2, 4: 2}
    assert report.orders_match and report.stabilizers_trivial
    report = mf.identity_machine_group_check(z3, k_max=3)
    assert report.level_orders == {1: 3, 2: 3, 3: 3}
    assert report.orders_match and report.stabilizers_trivial
