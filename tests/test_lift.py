"""The component lift against a fresh breadth-first search per word.

``levels.lift`` builds the marked component of ``w a`` from that of ``w``;
the boundary searches compare components as lifted rows.  Each is checked
against the per-word search kept in helpers.py, on the corpus, on the
Cayley, palindrome and identity machines of small groups and their duals,
and on seeded random invertible and bireversible machines.
"""

import collections
import dataclasses
import itertools
import random

import pytest

import mealyforge as mf
from helpers import (
    oracle_component_raw,
    oracle_decide_bounded,
    oracle_finiteness,
    rand_bireversible,
    rand_invertible,
)
from mealyforge.levels import _component_raw, _root_rows, _signed_tables, lift
from mealyforge.machines import SignedTables


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
    rng = random.Random(4001)
    for i in range(8):
        out["rinv%d" % i] = rand_invertible(rng, rng.randrange(1, 4), rng.randrange(2, 4))
        out["rbi%d" % i] = rand_bireversible(rng, rng.randrange(2, 4), rng.randrange(2, 4))
    return {name: m for name, m in out.items() if mf.is_invertible(m)}


@pytest.fixture(scope="module")
def machines(corpus_machines):
    return _machines(corpus_machines)


def _word_len(machine):
    return {2: 4, 3: 3}.get(len(machine.alphabet), 2)


def test_machine_set_covers_each_kind(machines):
    for name in ("grigorchuk", "odometer", "identity2", "z2.pal.dual", "s3.pal",
                 "klein.id.dual", "rinv0", "rbi0"):
        assert name in machines


def test_lift_equals_canonical_form_of_fresh_search(machines):
    for name, machine in machines.items():
        tables = _signed_tables(machine)
        gens = list(range(2 * tables.n))
        level = {(): _root_rows(tables)}
        for _ in range(_word_len(machine)):
            nxt = {}
            for w, rows in level.items():
                for a in range(len(machine.alphabet)):
                    word = w + (a,)
                    _, edges = oracle_component_raw(SignedTables(machine), word)
                    canon = mf.canonical_marked(lambda v, g: edges[(v, g)], word, gens)
                    got = lift(rows, a, tables)
                    assert got == canon, (name, word)
                    assert lift(rows, a, tables, cap=len(canon)) == canon
                    assert lift(rows, a, tables, cap=len(canon) - 1) is None
                    nxt[word] = got
            level = nxt


def test_folded_component_raw_matches_fresh_search(machines):
    for name, machine in machines.items():
        tables = _signed_tables(machine)
        for k in range(_word_len(machine) + 1):
            for word in itertools.product(range(len(machine.alphabet)), repeat=k):
                assert _component_raw(tables, word) == oracle_component_raw(
                    SignedTables(machine), word
                ), (name, word)


def test_component_raw_budget_is_component_size(odometer):
    tables = _signed_tables(odometer)
    assert len(_component_raw(tables, (0, 1, 1), budget=8)[0]) == 8
    with pytest.raises(mf.BudgetExceeded):
        _component_raw(tables, (0, 1, 1), budget=7)


def test_finiteness_verdicts_match_oracle(machines):
    for name, machine in machines.items():
        horizons = (3, 5) if len(machine.alphabet) <= 3 else (3,)
        for horizon in horizons:
            assert mf.finiteness_semidecision(machine, horizon) == oracle_finiteness(
                machine, horizon
            ), (name, horizon)


def test_decide_bounded_verdicts_match_oracle(machines):
    kinds = set()
    open_at_3 = collections.Counter()
    for name, machine in machines.items():
        for limit in (1, 2, 3, 4, 8, 16):
            got = mf.decide_bounded_schreier(machine, limit)
            kinds.add(got.kind)
            if got.kind == "yes":
                assert mf.verify_bounded_witness(machine, got), (name, limit)
            want = oracle_decide_bounded(machine, limit, 8)
            if want is not None:
                assert got == want, (name, limit)
            if oracle_decide_bounded(machine, limit, 3) is None:
                open_at_3[got.kind] += 1
    assert kinds == {"yes", "no"}
    # The cases that levels 1-3 leave open are decided as well.
    assert open_at_3 == {"no": 12, "yes": 5}


def test_verify_rejects_a_wrong_period(odometer, identity2):
    verdict = mf.decide_bounded_schreier(identity2, 1)
    assert mf.verify_bounded_witness(identity2, verdict)
    wrong = mf.BoundedVerdict(kind="yes", limit=2, prefix="0", period="1", component_size=2)
    assert not mf.verify_bounded_witness(odometer, wrong)


def test_verify_rejects_forged_witnesses(odometer, grigorchuk, identity2, z2):
    empty_period = mf.BoundedVerdict(
        kind="yes", limit=2, prefix="0", period="", component_size=2
    )
    assert not mf.verify_bounded_witness(odometer, empty_period)
    assert not mf.verify_bounded_witness(grigorchuk, empty_period)
    # identity2 keeps every component at one vertex.
    wrong_size = mf.BoundedVerdict(kind="yes", limit=2, prefix="0", period="0", component_size=2)
    assert not mf.verify_bounded_witness(identity2, wrong_size)
    finite = mf.dual(mf.identity_machine_of(z2))
    verdict = mf.decide_bounded_schreier(finite, 2)
    assert verdict.component_size == 2 and mf.verify_bounded_witness(finite, verdict)
    over_limit = dataclasses.replace(verdict, limit=1)
    assert not mf.verify_bounded_witness(finite, over_limit)
