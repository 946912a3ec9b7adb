"""Reduced state words by code against the name-level code kept as oracles.

``levels._reduced_code_words`` is the one enumerator of reduced signed
state words, and one ``levels._SectionCheck`` per call decides relations.
The periodic scan, the relation ledger and the Cayley reports read words
through them by code; each is checked here, output for output and in the
same order, against the name-level version kept in helpers.py, on the
corpus, on the Cayley, palindrome and identity machines of small groups
and their duals, and on seeded random machines.
"""

import pytest

import mealyforge as mf
from helpers import (
    differential_machines,
    oracle_palindromic_counts,
    oracle_periodic_scan,
    oracle_reduced_tokens,
    oracle_reduced_words,
    oracle_relation_recursion,
    oracle_stabilizers_trivial,
)
from mealyforge.levels import _reduced_code_words, _signed_tables

GROUPS = {
    "z2": mf.GroupTable.cyclic(2),
    "z3": mf.GroupTable.cyclic(3),
    "klein": mf.GroupTable.klein(),
    "s3": mf.GroupTable.symmetric3(),
}


@pytest.fixture(scope="module")
def machines(corpus_machines):
    return differential_machines(corpus_machines)


def test_reduced_code_words_match_name_enumeration(machines):
    for name, machine in machines.items():
        tables = _signed_tables(machine)
        max_len = 3 if tables.n <= 4 else 2
        by_length = list(_reduced_code_words(tables.n, max_len))
        assert len(by_length) == max_len
        named = [[tuple(tables.names[c] for c in w) for w in ws] for ws in by_length]
        assert [w for ws in named for w in ws] == oracle_reduced_words(machine, max_len), name
        for length, ws in enumerate(named, 1):
            assert ws == list(oracle_reduced_tokens(tables.names, length)), (name, length)
    assert list(_reduced_code_words(2, 0)) == []


def _scan_sizes(machine):
    """(max period, max generator length) that keep the name oracle quick."""
    m, n = len(machine.alphabet), len(machine.states)
    if m == 2:
        return (3, 3) if n <= 3 else (3, 2)
    return (2, 2) if m * n <= 12 else (1, 2)


def test_periodic_scan_matches_name_oracle(machines):
    verdicts = set()
    for name, machine in machines.items():
        max_period, max_gen_len = _scan_sizes(machine)
        got = mf.periodic_stabilizer_scan(machine, max_period, max_gen_len, depth=3)
        assert got == oracle_periodic_scan(machine, max_period, max_gen_len, depth=3), name
        verdicts |= {e.nontrivial for e in got}
    assert verdicts == {True, False}


def test_periodic_scan_budget_partial_is_a_smaller_scan(grigorchuk):
    # Each budget stops the scan inside some period length; the partial is
    # then the complete scan of the shorter period lengths.
    periods = set()
    for budget in (1, 200, 400, 1600, 10**4):
        try:
            got = mf.periodic_stabilizer_scan(grigorchuk, 3, 2, depth=3, budget=budget)
        except mf.BudgetExceeded as exc:
            done = exc.partial["max_period"]
            periods.add(done)
            assert exc.partial["entries"] == mf.periodic_stabilizer_scan(
                grigorchuk, done, 2, depth=3
            ), budget
        else:
            assert got == mf.periodic_stabilizer_scan(grigorchuk, 3, 2, depth=3)
    assert periods == {0, 1, 2}


@pytest.mark.parametrize(
    "group, k_max, depth",
    [("z2", 3, 4), ("z2", 2, None), ("z3", 2, 3), ("klein", 2, 2), ("s3", 2, 2)],
)
def test_relation_ledger_matches_name_oracle(group, k_max, depth):
    got = mf.relation_recursion(GROUPS[group], k_max, verify_depth=depth)
    assert got == oracle_relation_recursion(GROUPS[group], k_max, verify_depth=depth)


def test_relation_ledger_budget_partial_matches_name_oracle():
    for group, k_max, budget in (("z2", 3, 100), ("z2", 3, 300), ("klein", 2, 1000)):
        with pytest.raises(mf.BudgetExceeded) as got:
            mf.relation_recursion(GROUPS[group], k_max, verify_depth=3, budget=budget)
        with pytest.raises(mf.BudgetExceeded) as want:
            oracle_relation_recursion(GROUPS[group], k_max, verify_depth=3, budget=budget)
        assert got.value.partial == want.value.partial
        assert got.value.partial.n_sets and got.value.partial.all_verified


def test_palindromic_counts_match_name_oracle():
    for name, group in GROUPS.items():
        report = mf.palindromic_diagnostics(group, max_len=4, level_k=1)
        assert (report.per_length, report.palindromic) == oracle_palindromic_counts(
            group, 4
        ), name


def test_palindromic_stabilizers_without_level_orders():
    for group in GROUPS.values():
        with_levels = mf.palindromic_diagnostics(group, max_len=1, level_k=2)
        without = mf.palindromic_diagnostics(group, max_len=1, level_k=0)
        assert without.level_orders == {}
        assert without.letter_stabilizer_orders == with_levels.letter_stabilizer_orders


def test_identity_machine_check_matches_name_oracle():
    for name, group in GROUPS.items():
        k_max = 2 if group.order > 4 else 3
        report = mf.identity_machine_group_check(group, k_max=k_max, depth=3)
        assert report.stabilizers_trivial == oracle_stabilizers_trivial(group, k_max, 3), name
        assert report.level_orders == dict.fromkeys(range(1, k_max + 1), group.order)
