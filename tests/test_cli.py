import pytest

from opalg import ValidationError, parse_scenario, run_scenario
from opalg.cli import DEMO_SCENARIOS, main

MINIMAL_GNS = """\
kind: gns
algebra: {blocks: [2]}
state:
  densities:
    - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
"""


def test_parse_minimal_gns():
    scenario = parse_scenario(MINIMAL_GNS)
    assert scenario.kind == "gns"
    assert scenario.params["algebra"].blocks == (2,)


def test_parse_rejects_unnormalized_density():
    bad = MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[0.5, 0], [0, 0]]")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert "densities" in str(err.value)
    assert "trace" in str(err.value)


def test_parse_rejects_unknown_kind_and_fields():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: frobnicate\n")
    assert "unknown kind" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + "bogus: 1\n")
    assert "bogus" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + "configs: []\n")
    assert "does not belong to kind" in str(err.value)


def test_parse_rejects_non_finite_numbers():
    bad = MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[.inf, 0], [0, 0]]")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert "finite" in str(err.value)


def test_parse_error_carries_line_information():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\nalgebra: {blocks: [0]}\nstate: {densities: [[[[1,0]]]]}\n")
    assert "line 2" in str(err.value)


def test_parse_qubit_tail_scenario():
    text = """\
kind: qubit
configs:
  - tail: {c: 1.0, p: 1.0}
  - {}
"""
    scenario = parse_scenario(text)
    report = run_scenario(scenario)
    assert any("convergent" in line for line in report.lines)


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\n  bad indent: [\n")
    assert "line" in str(err.value)


def test_run_scenario_deterministic_bytes():
    scenario = parse_scenario(DEMO_SCENARIOS["ccr"])
    first = run_scenario(scenario).render()
    second = run_scenario(parse_scenario(DEMO_SCENARIOS["ccr"])).render()
    assert first == second


def test_cli_run_file_and_directory(tmp_path, capsys):
    single = tmp_path / "one.yaml"
    single.write_text(MINIMAL_GNS)
    assert main(["run", str(single)]) == 0
    out = capsys.readouterr().out
    assert "carrier_dim = 2" in out
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(DEMO_SCENARIOS["equiv"])
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt", "b.report.txt"]


def test_scenario_declared_report_path(tmp_path):
    target = tmp_path / "named.txt"
    scenario = tmp_path / "s.yaml"
    scenario.write_text(MINIMAL_GNS + f"report: {target}\n")
    assert main(["run", str(scenario)]) == 0
    assert "carrier_dim = 2" in target.read_text()


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "ok.yaml"
    good.write_text(MINIMAL_GNS)
    assert main(["validate", str(good)]) == 0
    assert "valid scenario" in capsys.readouterr().out
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: gns\n")
    assert main(["validate", str(bad)]) == 1
    assert "schema error" in capsys.readouterr().err


def test_cli_missing_file_is_schema_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 1


def test_cli_empty_batch_is_empty_report(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["run", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_symmetry_multiplier_table_on_request():
    text = DEMO_SCENARIOS["symmetry"] + "report_multipliers: true\n"
    report = run_scenario(parse_scenario(text))
    assert any(line.startswith("multiplier_table") for line in report.lines)


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    text = """\
kind: ccr
space:
  gram: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
  k: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
fock: {max_occupation: 40}
"""
    scenario = tmp_path / "big.yaml"
    scenario.write_text(text)
    assert main(["run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "basis" in err


def test_cli_unresolvable_shells_exit_code(tmp_path, capsys):
    text = """\
kind: field
field:
  mass: 1.0
  second_mass: 1.000000001
  cutoff: 6.0
  points: 9
"""
    scenario = tmp_path / "shells.yaml"
    scenario.write_text(text)
    assert main(["run", str(scenario)]) == 2
    assert "mass_witness" in capsys.readouterr().err


def test_cli_demo_kinds(tmp_path):
    for kind in ("gns", "equiv", "qubit", "group", "symmetry"):
        assert main(["demo", kind, "--out", str(tmp_path / kind)]) == 0
    assert main(["demo", "nonsense"]) == 1


def test_csv_artifacts(tmp_path):
    out = tmp_path / "r"
    csv = tmp_path / "csv"
    assert main(["demo", "ccr", "--out", str(out), "--csv", str(csv)]) == 0
    table = (csv / "demo_ccr.moments.csv").read_text().splitlines()
    assert table[0] == "multi_index,wick,oracle,relative_residual"
    assert len(table) > 1
    assert main(["demo", "field", "--out", str(out), "--csv", str(csv)]) == 0
    field_table = (csv / "demo_field.pauli_jordan_minus.csv").read_text().splitlines()
    assert field_table[0] == "x0,x1,x2,x3,re,im"


def test_report_lines_carry_tolerance_provenance():
    report = run_scenario(parse_scenario(MINIMAL_GNS))
    line = next(l for l in report.lines if l.startswith("reconstruction_residual_max"))
    assert "tol" in line and "default" in line and "computed" in line
    configured = parse_scenario(MINIMAL_GNS + "tolerances: {reconstruction: 1.0e-7}\n")
    line2 = next(l for l in run_scenario(configured).lines
                 if l.startswith("reconstruction_residual_max"))
    assert "configured" in line2


def test_parse_reads_yaml_1_2_floats():
    # YAML 1.1 reads an exponent without a dot (1e-05) or without a sign (6E0) as a string
    text = ("kind: field\nfield: {mass: 1e-01, cutoff: 6E0, points: 9}\n"
            "tolerances: {commutator_identity: 1e-05}\n")
    scenario = parse_scenario(text)
    assert scenario.params["mass"] == 0.1
    assert scenario.params["cutoff"] == 6.0
    assert scenario.tolerances == {"commutator_identity": 1e-05}
    # integers still resolve to int, and a float is still no integer
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: field\nfield: {mass: 1.0, points: 9e0}\n")
    assert "expected an integer, got float" in str(err.value)


@pytest.mark.parametrize("value", ["0", "0.0", "-1.0e-3"])
def test_parse_rejects_non_positive_tolerance(value):
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + f"tolerances:\n  reconstruction: {value}\n")
    assert "tolerances.reconstruction" in str(err.value)
    assert "line 7" in str(err.value)
    assert "positive" in str(err.value)


# every Pauli moves this state by 4e-7 in the dual norm, except the identity and Z
NEAR_STATIONARY_SYMMETRY = DEMO_SCENARIOS["symmetry"].replace(
    "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
    "[[[0.5000001, 0], [0, 0]], [[0, 0], [0.4999999, 0]]]")


def test_configured_stationarity_reaches_implementer_and_orbit():
    default = run_scenario(parse_scenario(NEAR_STATIONARY_SYMMETRY)).lines
    assert "automorphism[1].stationary = False [computed]" in default
    assert "automorphism[1].implementer = absent [computed]" in default
    assert "stabilizer_size = 2 [computed]" in default
    assert "orbit_size = 2 [computed]" in default
    configured = run_scenario(parse_scenario(
        NEAR_STATIONARY_SYMMETRY + "tolerances: {stationarity: 1.0e-6}\n")).lines
    assert "automorphism[1].stationary = True [computed]" in configured
    assert "automorphism[1].implementer = present [computed]" in configured
    assert "stabilizer_size = 4 [computed]" in configured
    assert "orbit_size = 1 [computed]" in configured
    assert "orbit_law_exact = True [computed]" in configured


def test_cli_batch_rejects_colliding_report_names(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "a.yml").write_text(DEMO_SCENARIOS["equiv"])
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "schema error" in err
    assert str(batch / "a.yaml") in err and str(batch / "a.yml") in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_cli_rejects_non_positive_global_tolerance(value, capsys):
    assert main(["demo", "gns", "--tol", value]) == 1
    captured = capsys.readouterr()
    assert "schema error: --tol:" in captured.err and "positive" in captured.err
    assert captured.out == ""


def test_stabilizer_orbit_uses_one_threshold():
    # X and iY move this state by 4e-9, past the stabilizer threshold 1e-10; a
    # looser distinctness threshold would merge their orbit points and break
    # the orbit law
    text = DEMO_SCENARIOS["symmetry"].replace(
        "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
        "[[[0.500000001, 0], [0, 0]], [[0, 0], [0.499999999, 0]]]")
    lines = run_scenario(parse_scenario(text)).lines
    assert "stabilizer_size = 2 [computed]" in lines
    assert "orbit_size = 2 [computed]" in lines
    assert "orbit_law_exact = True [computed]" in lines


def test_qubit_transition_on_eight_sites():
    # M256 has 65536 matrix units; the transport identity checks them all at once
    vectors = ["[[0.6, 0], [0, 0.8]]", "[[0, 0], [1, 0]]", "[[0.8, 0], [0.6, 0]]"]
    overrides = "".join(f"      - {{site: {s}, vector: {vectors[s % 3]}}}\n" for s in range(1, 9))
    text = ("kind: qubit\nconfigs:\n  - default: [[1, 0], [0, 0]]\n"
            "  - default: [[1, 0], [0, 0]]\n    overrides:\n" + overrides)
    lines = run_scenario(parse_scenario(text)).lines
    assert "verdict = convergent [computed]" in lines
    assert "local_transition_support = [1, 2, 3, 4, 5, 6, 7, 8] [computed]" in lines
    residual = [line for line in lines if line.startswith("local_transition_residual")]
    assert len(residual) == 1 and residual[0].endswith("[tol 1.0e-09 default, computed] pass")


def test_gns_reconstruction_of_a_complex_density():
    # f(e_ij) = rho[j, i]: a real density cannot tell rho from its transpose
    text = MINIMAL_GNS.replace("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
                               "[[[0.5, 0], [0.2, 0.3]], [[0.2, -0.3], [0.5, 0]]]")
    lines = run_scenario(parse_scenario(text)).lines
    residual = [line for line in lines if line.startswith("reconstruction_residual_max")]
    assert len(residual) == 1 and residual[0].endswith("[tol 1.0e-09 default, computed] pass")
    assert float(residual[0].split(" = ")[1].split()[0]) <= 1e-15


def test_cli_numerical_failure_names_the_scenario_file(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(
        "kind: field\nfield: {mass: 1.0, second_mass: 1.0000001, cutoff: 6.0, points: 9}\n")
    assert main(["run", str(batch)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {batch / 'b.yaml'}: OpalgError: mass_witness: ")


def test_cli_schema_error_names_the_scenario_file(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[0.5, 0], [0, 0]]"))
    assert main(["run", str(batch), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {batch / 'b.yaml'}: state.densities (line 5): ")


def test_cli_demo_reports_identical_across_worker_counts(tmp_path):
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["demo", "all", "--jobs", jobs, "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(reports[0]) == len(DEMO_SCENARIOS)
    assert reports[0] == reports[1]
