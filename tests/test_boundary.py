"""Swapping structure, finiteness evidence, bounded orbits, torsion."""

import itertools

import pytest

import mealyforge as mf


def test_swapping_odometer_all_fail(odometer):
    comp = mf.level_component(odometer, ("0", "1"))
    results = [
        mf.swapping_inclusion(comp, p1, p2)
        for p1 in comp.vertices
        for p2 in comp.vertices
    ]
    assert len(results) == 16 and not any(results)
    assert not mf.swapping_invariant(comp, "01", "10")
    assert not mf.is_supersymmetric(comp)


def test_swapping_supersymmetric_components(z2, z3):
    machine = mf.dual(mf.identity_machine_of(z2))
    comp = mf.level_component(machine, ("e", "a"))
    assert comp.vertices == ("ea", "ae")
    assert mf.is_supersymmetric(comp)
    pal = mf.dual(mf.palindrome_machine(z3))
    comp3 = mf.level_component(pal, ("a",))
    assert comp3.size == 3
    assert mf.is_supersymmetric(comp3)


def test_bireversible_components_supersymmetric(z3):
    machine = mf.palindrome_machine(z3)
    assert mf.is_bireversible(machine)
    for word in (("e",), ("a", "b")):
        assert mf.is_supersymmetric(mf.level_component(machine, word))


def test_swapping_cycle_identity(identity2):
    comp = mf.level_component(identity2, ("0",))
    cycle = mf.swapping_cycle(comp, "0", "0")
    assert cycle.vertices == ["0"]
    assert cycle.period_word == "0"


def test_swapping_cycle_frozen(z2):
    machine = mf.dual(mf.identity_machine_of(z2))
    comp = mf.level_component(machine, ("e", "a"))
    fixed = mf.swapping_cycle(comp, "ea", "ea")
    assert fixed.vertices == ["ea"] and fixed.period_word == "ea"
    swapped = mf.swapping_cycle(comp, "ea", "ae")
    assert swapped.vertices == ["ea", "ae"] and swapped.period_word == "eaae"


def test_swapping_cycle_yields_bounded_point(z2):
    machine = mf.dual(mf.identity_machine_of(z2))
    comp = mf.level_component(machine, ("e", "a"))
    cycle = mf.swapping_cycle(comp, "ea", "ae")
    period = tuple(cycle.period_word)
    sizes = {mf.level_component(machine, period * t).size for t in (1, 2, 3)}
    assert len(sizes) == 1


def test_swapping_cycle_precondition(odometer):
    comp = mf.level_component(odometer, ("0", "1"))
    with pytest.raises(ValueError):
        mf.swapping_cycle(comp, "01", "10")


def test_infiniteness_certificate(z2, z3, odometer):
    for group in (z2, z3):
        cert = mf.infiniteness_certificate(mf.cayley_machine(group))
        assert cert is not None
        assert cert.output_letter == "e"
        assert "share a target" in cert.reason
    assert mf.infiniteness_certificate(odometer) is None
    assert mf.infiniteness_certificate(mf.palindrome_machine(z3)) is None
    assert mf.infiniteness_certificate(mf.identity_machine_of(z2)) is None


def test_finiteness_finite_cases(identity2, z2):
    verdict = mf.finiteness_semidecision(identity2)
    assert verdict.kind == "finite"
    assert verdict.bound == 1 and verdict.level == 1
    verdict = mf.finiteness_semidecision(mf.dual(mf.identity_machine_of(z2)))
    assert verdict.kind == "finite"
    assert verdict.bound == 2 and verdict.level == 2


def test_finiteness_infinite_cases(odometer, z2):
    verdict = mf.finiteness_semidecision(odometer)
    assert verdict.kind == "infinite"
    assert "heuristic" in verdict.evidence
    verdict = mf.finiteness_semidecision(mf.cayley_machine(z2))
    assert verdict.kind == "infinite"
    assert "not bireversible" in verdict.evidence


def test_finiteness_unknown_at_short_horizon(odometer):
    verdict = mf.finiteness_semidecision(odometer, horizon=1)
    assert verdict.kind == "unknown"


def test_zeta_odometer(odometer):
    assert mf.zeta(odometer, 254) == mf.ZetaValue(0, True)
    assert mf.zeta(odometer, 255) == mf.ZetaValue(1, False)
    assert mf.zeta(odometer, 4349) == mf.ZetaValue(2, False)


def test_zeta_monotone(odometer):
    values = [mf.zeta(odometer, n).value for n in range(0, 10**6, 37777)]
    assert values == sorted(values)


def test_zeta_errors(identity2):
    with pytest.raises(ValueError):
        mf.zeta(identity2, 100)
    machine = mf.MealyMachine.from_tables(("p",), ("0", "1"), [[0, 0]], [[0, 0]])
    with pytest.raises(mf.NotInvertible):
        mf.zeta(machine, 100)


def test_decide_bounded_yes(z2):
    machine = mf.dual(mf.identity_machine_of(z2))
    verdict = mf.decide_bounded_schreier(machine, 2)
    assert verdict.kind == "yes"
    assert verdict.component_size == 2
    assert verdict.prefix == "e" and verdict.period == "e"
    assert mf.verify_bounded_witness(machine, verdict, periods=4)


def test_decide_bounded_no(odometer, grigorchuk):
    verdict = mf.decide_bounded_schreier(odometer, 3)
    assert verdict.kind == "no"
    assert verdict.level == 2 and verdict.chi_at_level == 4
    verdict = mf.decide_bounded_schreier(grigorchuk, 4, horizon=8)
    assert verdict.kind == "no"
    assert verdict.level == 3 and verdict.chi_at_level == 8


def test_decide_bounded_identity(identity2):
    verdict = mf.decide_bounded_schreier(identity2, 1)
    assert verdict.kind == "yes"
    assert verdict.component_size == 1
    assert mf.verify_bounded_witness(identity2, verdict)


def test_decide_bounded_ignores_horizon(grigorchuk):
    no = mf.BoundedVerdict(kind="no", limit=8, level=4, chi_at_level=16)
    assert mf.decide_bounded_schreier(grigorchuk, 8) == no
    assert mf.decide_bounded_schreier(grigorchuk, 8, horizon=2) == no


def test_decide_bounded_budget(odometer):
    with pytest.raises(mf.BudgetExceeded):
        mf.decide_bounded_schreier(odometer, 10**6, horizon=30, budget=100)


def test_verify_witness_rejects_other_verdicts(odometer):
    verdict = mf.decide_bounded_schreier(odometer, 3)
    with pytest.raises(ValueError):
        mf.verify_bounded_witness(odometer, verdict)


def test_torsion_identity_flavour(z2):
    machine = mf.enriched_dual(mf.identity_machine_of(z2)).machine
    witnesses = mf.torsion_search(machine, 1, 8)
    assert [(w.word, w.index, w.period) for w in witnesses] == [
        (("e",), 1, 1),
        (("a",), 1, 1),
        (("e^-1",), 1, 1),
        (("a^-1",), 1, 1),
    ]
    assert [mf.torsion_bound_ell(machine, w) for w in witnesses] == [2, 2, 2, 2]


def test_torsion_palindrome_flavour(z3):
    machine = mf.enriched_dual(mf.palindrome_machine(z3)).machine
    witnesses = mf.torsion_search(machine, 1, 8)
    assert len(witnesses) == len(machine.alphabet)
    for w in witnesses:
        assert (w.index, w.period) == (1, 2)
        assert mf.torsion_bound_ell(machine, w) == 9


def test_torsion_witnesses_reverified_by_depth_probes(z2):
    machine = mf.enriched_dual(mf.identity_machine_of(z2)).machine
    dual_machine = mf.dual(machine)
    for w in mf.torsion_search(machine, 1, 8):
        low = w.word * w.index
        high = w.word * (w.index + w.period)
        for depth in (1, 2, 3):
            for v in itertools.product(machine.states, repeat=depth):
                assert mf.act_output(dual_machine, low, v) == mf.act_output(
                    dual_machine, high, v
                )


def test_torsion_free_word_has_no_witness(odometer):
    assert mf.torsion_search(odometer, 2, 4) == []


def test_periodic_stabilizer_scan(grigorchuk):
    entries = mf.periodic_stabilizer_scan(grigorchuk, 1, 1, depth=4)
    table = {(e.period_word, e.state_word): e.nontrivial for e in entries}
    assert len(entries) == 12
    assert table[("0", ("d",))] is True
    assert table[("0", ("id",))] is False
    assert table[("1", ("b",))] is True
    assert table[("1", ("c",))] is True
    assert table[("1", ("d",))] is True
    assert ("0", ("b",)) not in table
    assert ("0", ("a",)) not in table
    assert table[("1", ("b^-1",))] is True


def _truncated_odometer():
    """c_i sends 0 to (e, 1) and 1 to (c_(i+1), 0); c7 and e act trivially,
    so every state moves only the first seven letters of a word."""
    states = tuple("c%d" % i for i in range(8)) + ("e",)
    transitions = [[8, i + 1] for i in range(7)] + [[7, 7], [8, 8]]
    outputs = [[1, 0]] * 7 + [[0, 1], [0, 1]]
    return mf.MealyMachine.from_tables(states, ("0", "1"), transitions, outputs)


def test_finiteness_heuristic_verdict_is_not_proven():
    machine = _truncated_odometer()
    verdict = mf.finiteness_semidecision(machine, horizon=6)
    assert verdict.kind == "infinite" and verdict.level == 6
    assert verdict.proven is False
    verdict = mf.finiteness_semidecision(machine, horizon=9)
    assert verdict.kind == "finite" and verdict.proven is True
    assert verdict.level == 8 and verdict.bound == 128


def test_finiteness_proven_flags(odometer, z2):
    assert mf.finiteness_semidecision(mf.cayley_machine(z2)).proven is True
    assert mf.finiteness_semidecision(odometer, horizon=1).proven is False


def test_finiteness_budget_partial_is_chi_of_completed_levels(odometer):
    # All 2^k marked components of the odometer's level k differ, so level
    # k lifts 2^k components of 2^k vertices: 4, 16, 64, 256, 1024.
    chi = [2, 4, 8, 16, 32]
    for budget, levels in ((1, 0), (4, 1), (83, 2), (84, 3), (1363, 4)):
        with pytest.raises(mf.BudgetExceeded) as info:
            mf.finiteness_semidecision(odometer, horizon=5, budget=budget)
        assert info.value.partial == {"levels": levels, "chi": chi[:levels]}
    verdict = mf.finiteness_semidecision(odometer, horizon=5, budget=1364)
    assert verdict.kind == "infinite" and str(chi) in verdict.evidence


def test_decide_bounded_budget_counts_the_full_level(odometer):
    # Level 1 builds two components of 2 vertices; level 2 lifts both nodes
    # by both letters, and each lift stops past the limit, counting 4; the
    # "no" verdict then measures the one level-2 component of 4 vertices.
    no = mf.BoundedVerdict(kind="no", limit=3, level=2)
    for budget, partial in (
        (3, mf.BoundedVerdict(kind="exhausted", limit=3, horizon=0)),
        (19, mf.BoundedVerdict(kind="exhausted", limit=3, horizon=1)),
        (20, no),
        (23, no),
    ):
        with pytest.raises(mf.BudgetExceeded) as info:
            mf.decide_bounded_schreier(odometer, 3, budget=budget)
        assert info.value.partial == partial
    verdict = mf.decide_bounded_schreier(odometer, 3, budget=24)
    assert verdict == mf.BoundedVerdict(kind="no", limit=3, level=2, chi_at_level=4)


def test_decide_bounded_budget_counts_every_component_of_the_level():
    # The odometer on the bit of each letter (bit, tag), the tag kept: its
    # level 2 has four components of 4 vertices.  The search spends 8 on
    # level 1 and 2 nodes x 4 letters x 4 on level 2; the "no" verdict then
    # measures all 16 vertices of level 2.
    letters = ("0", "1", "2", "3")  # letter 2 * tag + bit
    transitions = [[1, 0, 1, 0], [1, 1, 1, 1]]
    outputs = [[1, 0, 3, 2], [0, 1, 2, 3]]
    machine = mf.MealyMachine.from_tables(("a", "e"), letters, transitions, outputs)
    assert mf.growth_chi(machine, 2).component_sizes[-1] == [(4, 4)]
    no = mf.BoundedVerdict(kind="no", limit=3, level=2)
    for budget, partial in (
        (39, mf.BoundedVerdict(kind="exhausted", limit=3, horizon=1)),
        (40, no),
        (55, no),
    ):
        with pytest.raises(mf.BudgetExceeded) as info:
            mf.decide_bounded_schreier(machine, 3, budget=budget)
        assert info.value.partial == partial
    verdict = mf.decide_bounded_schreier(machine, 3, budget=56)
    assert verdict == mf.BoundedVerdict(kind="no", limit=3, level=2, chi_at_level=4)
