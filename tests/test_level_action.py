"""The wreath-recursion level action and the section check against the
whole-word code they replace.

``levels.LevelAction`` builds each level's permutations from the level
below, and ``is_group_relation_up_to`` / ``find_relations`` decide
relations through sections.  Each is checked against the per-word oracles
kept in helpers.py, on the corpus, on the Cayley, palindrome and identity
machines of small groups and their duals, and on seeded random invertible
and bireversible machines.
"""

import itertools
import random

import pytest

import mealyforge as mf
from helpers import (
    oracle_apply_state,
    oracle_find_relations,
    oracle_growth_chi,
    oracle_is_relation,
    oracle_level_graph,
    oracle_level_group,
    oracle_reduced_words,
    rand_bireversible,
    rand_invertible,
)
from mealyforge.levels import LevelAction, _SectionCheck, _signed_tables
from mealyforge.machines import _run


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
    rng = random.Random(5101)
    for i in range(6):
        out["rinv%d" % i] = rand_invertible(rng, rng.randrange(1, 4), rng.randrange(2, 4))
        out["rbi%d" % i] = rand_bireversible(rng, rng.randrange(2, 4), rng.randrange(2, 4))
    return {name: m for name, m in out.items() if mf.is_invertible(m)}


@pytest.fixture(scope="module")
def machines(corpus_machines):
    return _machines(corpus_machines)


def _depth(machine, binary, ternary, other):
    return {2: binary, 3: ternary}.get(len(machine.alphabet), other)


def test_machine_set_covers_each_kind(machines):
    assert {"grigorchuk", "odometer", "identity2"} <= set(machines)
    assert {len(m.alphabet) for m in machines.values()} >= {2, 3, 4, 6}
    assert any(name.startswith("rinv") for name in machines)
    assert any(name.startswith("rbi") for name in machines)
    assert any(name.endswith(".dual") for name in machines)


def test_permutations_and_sections_match_whole_word_runs(machines):
    for name, machine in machines.items():
        tables = _signed_tables(machine)
        m = tables.n_letters
        action = LevelAction(tables)
        for k in range(_depth(machine, 5, 3, 2) + 1):
            assert action.k == k and action.size == m**k
            sections = action.sections()
            for x, word in enumerate(itertools.product(range(m), repeat=k)):
                for q in range(2 * tables.n):
                    image = _run(tables, [q], list(word))
                    y = 0
                    for b in image:
                        y = y * m + b
                    assert action.perm[q][x] == y, (name, k, word, q)
                    assert sections[q][x] == oracle_apply_state(tables, q, word)[1]
            action.deepen()


def test_positive_action_is_a_prefix_of_the_signed_one(machines):
    for machine in machines.values():
        tables = _signed_tables(machine)
        k = _depth(machine, 4, 2, 1)
        signed = LevelAction(tables, k)
        positive = LevelAction(tables, k, n_codes=tables.n)
        assert positive.perm == signed.perm[: tables.n]
        assert positive.orbits() == signed.orbits()


def test_negative_level_is_rejected(odometer):
    with pytest.raises(ValueError):
        LevelAction(_signed_tables(odometer), -1)


def test_growth_reports_match(machines):
    for name, machine in machines.items():
        levels = _depth(machine, 8, 5, 3)
        assert mf.growth_chi(machine, levels) == oracle_growth_chi(machine, levels), name


def test_level_graphs_match(machines):
    for name, machine in machines.items():
        for k in range(_depth(machine, 5, 3, 2) + 1):
            graph = mf.level_graph(machine, k)
            vertices, edges, components = oracle_level_graph(machine, k)
            assert graph.vertices == vertices, (name, k)
            assert graph.edges == edges, (name, k)
            assert graph.components() == components, (name, k)
            sizes = mf.levels.component_sizes(machine, k)
            assert sizes == [len(c) for c in components], (name, k)


def test_level_groups_match(machines):
    for name, machine in machines.items():
        for k in range(_depth(machine, 3, 2, 1) + 1):
            report = mf.level_group(machine, k)
            order, perms, words = oracle_level_group(machine, k)
            assert report.order == order, (name, k)
            assert report.generator_perms == perms, (name, k)
            assert report.words == words, (name, k)


def test_relation_verdicts_match(machines):
    for name, machine in machines.items():
        # Depths 1-6 on binary machines; the oracle reads m^depth words, so
        # larger alphabets stop sooner.
        for w in oracle_reduced_words(machine, 3):
            for depth in range(1, _depth(machine, 6, 4, 3) + 1):
                expected = oracle_is_relation(machine, w, depth)
                assert mf.is_group_relation_up_to(machine, w, depth) == expected, (
                    name, w, depth)


def test_find_relations_match(machines):
    for name, machine in machines.items():
        max_len = _depth(machine, 4, 3, 2) if len(machine.states) <= 3 else 2
        for depth in (1, 3, _depth(machine, 6, 4, 3)):
            assert mf.find_relations(machine, max_len, depth) == oracle_find_relations(
                machine, max_len, depth), (name, depth)


def test_deep_relation_check(grigorchuk):
    # The whole-word loop would need 2^40 inputs for the first.
    assert mf.is_group_relation_up_to(grigorchuk, ("a", "a"), 40)
    assert not mf.is_group_relation_up_to(grigorchuk, ("a", "b"), 40)
    assert mf.is_group_relation_up_to(grigorchuk, ("b", "c", "d"), 40)
    assert mf.is_group_relation_up_to(grigorchuk, (), 3)
    assert mf.is_group_relation_up_to(grigorchuk, ("b",), 0)


def test_find_relations_budget_partial(grigorchuk):
    full = mf.find_relations(grigorchuk, 3, 5)
    with pytest.raises(mf.BudgetExceeded) as info:
        mf.find_relations(grigorchuk, 3, 5, budget=40)
    partial = info.value.partial
    assert partial["depth"] == 5
    assert partial["max_len"] < 3
    assert partial["relations"] == [w for w in full if len(w) <= partial["max_len"]]


def test_shared_memo_across_depths(machines):
    # One memo serves words checked at mixed depths in any order.
    rng = random.Random(5102)
    for name in ("grigorchuk", "odometer", "z3.pal", "klein.id.dual", "rbi1"):
        machine = machines[name]
        tables = _signed_tables(machine)
        check = _SectionCheck(tables)
        jobs = [(w, d) for w in oracle_reduced_words(machine, 3) for d in range(1, 5)]
        rng.shuffle(jobs)
        for w, d in jobs:
            expected = oracle_is_relation(machine, w, d)
            assert check.trivial(tuple(tables.codes(w)), d) == expected, (name, w, d)
