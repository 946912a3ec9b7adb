"""End-to-end command-line tests, run in process through main(argv)."""

import json
import pathlib

import pytest

import mealyforge as mf
from mealyforge.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "machines"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def odo_path():
    return str(CORPUS / "odometer.mealy")


@pytest.fixture()
def grig_path():
    return str(CORPUS / "grigorchuk.mealy")


@pytest.fixture()
def identity_path():
    return str(CORPUS / "identity2.mealy")


@pytest.fixture()
def z2_group_path():
    return str(CORPUS / "z2.group")


@pytest.fixture()
def z3_group_path():
    return str(CORPUS / "z3.group")


def write_machine(tmp_path, machine, name="machine.mealy"):
    path = tmp_path / name
    path.write_text(mf.format_machine(machine))
    return str(path)


def test_props_human(capsys, odo_path, odometer):
    code, out, err = run(capsys, "props", odo_path)
    assert code == 0 and err == ""
    assert "invertible: True" in out
    assert "bireversible: False" in out
    assert "dual_norm: 2" in out
    assert "digest: %s" % mf.machine_digest(odometer) in out


def test_props_json(capsys, odo_path):
    code, out, _ = run(capsys, "props", odo_path, "--json")
    payload = json.loads(out)
    assert payload["states"] == 2
    assert payload["reversible"] is False
    assert payload["minimized_states"] == 2


def test_global_flags_before_subcommand(capsys, odo_path):
    code, out, _ = run(capsys, "--json", "props", odo_path)
    assert code == 0
    assert json.loads(out)["invertible"] is True


def test_output_file(capsys, tmp_path, odo_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "props", odo_path, "--json", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["states"] == 2
    target2 = tmp_path / "out2.json"
    code, out, _ = run(capsys, "-o", str(target2), "props", odo_path, "--json")
    assert code == 0 and out == ""
    assert target2.read_text() == target.read_text()


def test_dual_command(capsys, odo_path, odometer):
    code, out, _ = run(capsys, "dual", odo_path)
    assert code == 0
    assert out == mf.format_machine(mf.dual(odometer))


def test_dual_dot(capsys, odo_path):
    code, out, _ = run(capsys, "dual", odo_path, "--dot")
    assert code == 0
    assert out.startswith("digraph machine {")


def test_inverse_command(capsys, odo_path, odometer):
    code, out, _ = run(capsys, "inverse", odo_path)
    assert code == 0
    assert out == mf.format_machine(mf.inverse_machine(odometer))


def test_enrich_not_reversible(capsys, odo_path):
    code, out, err = run(capsys, "enrich", odo_path)
    assert code == 1
    assert "mealyforge:" in err


def test_enrich_command(capsys, tmp_path, z2):
    path = write_machine(tmp_path, mf.identity_machine_of(z2))
    code, out, _ = run(capsys, "enrich", path)
    assert code == 0
    expected = mf.enrich(mf.identity_machine_of(z2)).machine
    assert out == mf.format_machine(expected)


def test_product_command(capsys, odo_path, odometer):
    code, out, _ = run(capsys, "product", odo_path, odo_path)
    assert code == 0
    assert out == mf.format_machine(mf.product(odometer, odometer))


def test_power_command(capsys, odo_path, odometer):
    code, out, _ = run(capsys, "power", odo_path, "-k", "2", "--base", "q,q")
    assert code == 0
    expected = mf.power(odometer, 2, base=("q", "q")).machine
    assert out == mf.format_machine(expected)


def test_components_level(capsys, odo_path):
    code, out, _ = run(capsys, "components", odo_path, "-k", "2")
    assert code == 0
    assert "level 2: 1 components, sizes [4]" in out


def test_components_base(capsys, odo_path):
    code, out, _ = run(capsys, "components", odo_path, "--base", "01")
    assert code == 0
    assert "component of 01: 4 vertices" in out


def test_components_requires_selector(capsys, odo_path):
    with pytest.raises(SystemExit) as err:
        main(["components", odo_path])
    assert err.value.code == 64


def test_schreier_basis(capsys, odo_path):
    code, out, _ = run(
        capsys, "schreier", odo_path, "--word", "011", "--stabilizer-basis", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_size"] == 8
    assert payload["rank"] == 9
    assert "e" in payload["stabilizer_basis"]
    assert "q q q q q q q q" in payload["stabilizer_basis"]


def test_level_group_command(capsys, odo_path):
    code, out, _ = run(capsys, "level-group", odo_path, "-k", "3")
    assert code == 0
    assert "level 3 group order: 8" in out


def test_level_group_budget_exit(capsys, odo_path):
    code, out, _ = run(capsys, "level-group", odo_path, "-k", "8", "--budget", "10")
    assert code == 3
    assert json.loads(out)["error"] == "budget exceeded"


def test_growth_command(capsys, odo_path):
    code, out, _ = run(capsys, "growth", odo_path, "-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == [2, 4, 8, 16]
    assert payload["bound_satisfied"] is True


def test_decide_bounded_exit_codes(capsys, tmp_path, odo_path, identity_path, grig_path, z2):
    code, out, _ = run(capsys, "decide-bounded", odo_path, "--limit", "3")
    assert code == 1 and "no: every level-2 component exceeds 3" in out
    code, out, _ = run(capsys, "decide-bounded", identity_path, "--limit", "1")
    assert code == 0 and out.startswith("yes:")
    ci_dual = write_machine(tmp_path, mf.dual(mf.identity_machine_of(z2)))
    code, out, _ = run(capsys, "decide-bounded", ci_dual, "--limit", "2")
    assert code == 0 and "stay at 2 vertices" in out
    code, out, _ = run(capsys, "decide-bounded", grig_path, "--limit", "8", "--horizon", "2")
    assert code == 1 and "no: every level-4 component exceeds 8 (smallest is 16)" in out


def test_budget_flag_exit(capsys, odo_path):
    code, out, _ = run(
        capsys, "decide-bounded", odo_path,
        "--limit", "1000000", "--horizon", "30", "--budget", "100",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "budget exceeded"
    assert payload["partial"]["kind"] == "exhausted"


def test_budget_env(capsys, monkeypatch, odo_path):
    monkeypatch.setenv("MEALYFORGE_BUDGET", "100")
    code, out, _ = run(
        capsys, "decide-bounded", odo_path, "--limit", "1000000", "--horizon", "30"
    )
    assert code == 3
    code, _, _ = run(
        capsys, "decide-bounded", odo_path,
        "--limit", "3", "--horizon", "30", "--budget", "1000000",
    )
    assert code == 1


def test_budget_env_invalid(capsys, monkeypatch, odo_path):
    monkeypatch.setenv("MEALYFORGE_BUDGET", "lots")
    code, _, err = run(capsys, "components", odo_path, "-k", "2")
    assert code == 64
    assert "MEALYFORGE_BUDGET" in err


def test_relations_command(capsys, grig_path):
    code, out, _ = run(capsys, "relations", grig_path, "--max-len", "2", "--depth", "6")
    assert code == 0
    assert "12 relation words up to length 2 (depth 6)" in out
    assert "\n  b c" not in out


def test_free_check_command(capsys, tmp_path, odo_path, z2):
    code, out, _ = run(capsys, "free-check", odo_path, "--max-len", "3")
    assert code == 0
    assert "collision: q = q e" in out
    free_side = write_machine(tmp_path, mf.dual(mf.cayley_machine(z2)))
    code, out, _ = run(capsys, "free-check", free_side, "--max-len", "4")
    assert code == 0
    assert "no collisions: semigroup free up to length 4" in out


def test_torsion_command(capsys, tmp_path, z2):
    machine = mf.enriched_dual(mf.identity_machine_of(z2)).machine
    path = write_machine(tmp_path, machine)
    code, out, _ = run(capsys, "torsion", path, "--max-len", "1", "--max-exp", "8")
    assert code == 0
    assert "4 torsion witnesses" in out
    assert "  e: index 1 period 1" in out
    code, out, _ = run(
        capsys, "torsion", path, "--max-len", "1", "--max-exp", "8", "--json"
    )
    payload = json.loads(out)
    assert {"word": ["a"], "index": 1, "period": 1} in payload["witnesses"]


def test_torsion_budget_exit(capsys, monkeypatch, grig_path):
    # The powers of 0 and 1 up to the cube fill 14 nodes of the dual's table.
    argv = ("torsion", grig_path, "--max-len", "1", "--max-exp", "3")
    code, out, _ = run(capsys, "--budget", "10", *argv)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "budget exceeded"
    assert payload["partial"] == {"max_len": 1, "max_exp": 2, "witnesses": []}
    code, _, _ = run(capsys, "--budget", "14", *argv)
    assert code == 0
    monkeypatch.setenv("MEALYFORGE_BUDGET", "13")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["partial"]["max_exp"] == 2


def test_free_check_budget_exit(capsys, monkeypatch, tmp_path, z2):
    path = write_machine(tmp_path, mf.dual(mf.cayley_machine(z2)))
    code, out, _ = run(capsys, "free-check", path, "--max-len", "4", "--budget", "10")
    assert code == 3
    assert json.loads(out)["partial"] == {"free_up_to": 2, "collision": None}
    monkeypatch.setenv("MEALYFORGE_BUDGET", "10")
    code, out, _ = run(capsys, "free-check", path, "--max-len", "4")
    assert code == 3
    code, _, _ = run(capsys, "free-check", path, "--max-len", "4", "--budget", "30")
    assert code == 0


def test_budget_below_one_is_a_usage_error(capsys, monkeypatch, odo_path):
    for value in ("0", "-5"):
        with pytest.raises(SystemExit) as err:
            main(["--budget", value, "growth", odo_path, "-n", "2"])
        assert err.value.code == 64
        with pytest.raises(SystemExit) as err:
            main(["growth", odo_path, "-n", "2", "--budget", value])
        assert err.value.code == 64
        monkeypatch.setenv("MEALYFORGE_BUDGET", value)
        code, _, err_text = run(capsys, "growth", odo_path, "-n", "2")
        assert code == 64
        assert "MEALYFORGE_BUDGET" in err_text
        monkeypatch.delenv("MEALYFORGE_BUDGET")


def test_scan_periodic_command(capsys, grig_path):
    code, out, _ = run(
        capsys, "scan-periodic", grig_path, "--max-period", "1", "--max-gen-len", "1"
    )
    assert code == 0
    assert "12 fixing state words" in out
    assert "(1)^inf fixed by b [nontrivial]" in out
    assert "(0)^inf fixed by id [trivial]" in out


def test_cayley_command(capsys, z3_group_path, z3):
    code, out, _ = run(capsys, "cayley", z3_group_path, "--kind", "palindrome")
    assert code == 0
    assert out == mf.format_machine(mf.palindrome_machine(z3))
    code, out, _ = run(capsys, "cayley", z3_group_path, "--phi", "e:e,a:e,b:e")
    assert code == 0
    assert out == mf.format_machine(mf.phi_machine(z3, {"e": "e", "a": "e", "b": "e"}))


def test_cayley_bad_phi(capsys, z3_group_path):
    code, _, err = run(capsys, "cayley", z3_group_path, "--phi", "e:e,a")
    assert code == 64
    assert "phi entries" in err


def test_ledger_command(capsys, z2_group_path):
    code, out, _ = run(capsys, "ledger", z2_group_path, "--k-max", "2", "--depth", "6")
    assert code == 0
    assert "length 2: 4 relation words" in out
    assert "length 4: 32 relation words" in out
    assert "all verified to depth 6: True" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "props", "no/such/file.mealy")
    assert code == 64
    assert "cannot read" in err


def test_malformed_machine(capsys, tmp_path):
    path = tmp_path / "bad.mealy"
    path.write_text("states: q\nq 0 -> q 0\n")
    code, _, err = run(capsys, "props", str(path))
    assert code == 64
    assert "line 2" in err


def test_inverse_requires_invertible(capsys, tmp_path):
    machine = mf.MealyMachine.from_tables(("p",), ("0", "1"), [[0, 0]], [[0, 0]])
    path = write_machine(tmp_path, machine)
    code, _, err = run(capsys, "inverse", path)
    assert code == 1
    assert "mealyforge:" in err


def test_usage_errors(odo_path):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["decide-bounded", odo_path])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 64


def test_relations_budget_exit(capsys, monkeypatch, odo_path):
    # The relation check reads 16 distinct section words up to length 2 and
    # 60 up to length 3.
    argv = ("relations", odo_path, "--max-len", "3", "--depth", "4")
    code, out, _ = run(capsys, "--budget", "20", *argv)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "budget exceeded"
    assert payload["partial"] == {
        "max_len": 2,
        "depth": 4,
        "relations": ["e", "e^-1", "e e", "e^-1 e^-1"],
    }
    monkeypatch.setenv("MEALYFORGE_BUDGET", "59")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    code, out, _ = run(capsys, "--json", "--budget", "60", *argv)
    assert code == 0
    assert json.loads(out)["count"] == 10


def test_removed_flags_are_usage_errors(capsys, odo_path):
    for flags in (("--threads", "2"), ("--seed", "1")):
        with pytest.raises(SystemExit) as err:
            main([*flags, "growth", odo_path, "-n", "2"])
        assert err.value.code == 64
        with pytest.raises(SystemExit) as err:
            main(["growth", odo_path, "-n", "2", *flags])
        assert err.value.code == 64
