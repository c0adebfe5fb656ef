import argparse
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sectorwb
from sectorwb import catalog, cli, fusion, wzw
from sectorwb.cli import build_parser, main

import _oracles

# a --tolerance before the subcommand is refused by name, not by its value
ROOT_TOLERANCE = "swb: error: --tolerance goes after the subcommand, on the commands that read it\n"


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for key in catalog.builtin_keys():
        assert key in out


def test_angle_cocommuting_json(capsys):
    assert main(["angle", "cocommuting", "--pn", "3", "--mp", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "inputs", "results", "residuals"}
    assert doc["command"] == "angle cocommuting"
    assert doc["results"]["angle_radians"] == pytest.approx(math.pi / 3, abs=1e-10)
    assert "hypotheses assumed" in doc["results"]["note"]


def test_angle_candidates_honours_degrees(capsys):
    argv = ["angle", "candidates", "--d", "4.3", "--s", "0.2"]
    assert main(argv) == 0
    radians = capsys.readouterr().out
    assert main(argv + ["--degrees"]) == 0
    degrees = capsys.readouterr().out
    assert "rad" in radians and " rad" not in degrees
    assert degrees.splitlines()[0] == "cosine 0.565055367187: angle 55.5938638063 deg"
    assert main(["--json"] + argv + ["--degrees"]) == 0
    for c in json.loads(capsys.readouterr().out)["results"]["candidates"]:
        assert c["angle_degrees"] == pytest.approx(math.degrees(c["angle_radians"]), rel=1e-11)
    # a degenerate branch has no angle in either unit
    assert main(["--json", "angle", "candidates", "--d", "1.5", "--s", "1", "--degrees"]) == 0
    plus = json.loads(capsys.readouterr().out)["results"]["candidates"][0]
    assert plus["degenerate"] and plus["angle_degrees"] is None


def test_json_round_trips(capsys):
    assert main(["--json", "haagerup", "qsystem"]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert json.dumps(doc, indent=2, sort_keys=True) == raw.rstrip("\n")
    assert len(doc["results"]["solutions"]) == 2
    sol = doc["results"]["solutions"][0]
    assert set(sol["a"]) == {"re", "im"}
    assert doc["residuals"]["s0_component"] < 1e-9


def test_degrees_flag(capsys):
    assert main(["angle", "bound", "--pn", "4", "--degrees"]) == 0
    out = capsys.readouterr().out
    assert "deg" in out
    assert f"{math.degrees(math.acos(1 / 3)):.6f}"[:6] in out


def test_hom_command(capsys):
    assert main(["hom", "haagerup_even", "t2*r*r", "t2 + r"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_validate_detects_corruption(tmp_path, capsys):
    doc = catalog.ring_to_dict(catalog.builtin("d6_even"))
    doc["tensor"]["r,r"]["r1"] = 5
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--file", str(p)]) == 1
    assert "error(s)" in capsys.readouterr().out


def test_validate_good_ring(capsys):
    assert main(["validate", "haagerup_even"]) == 0
    assert "ok" in capsys.readouterr().out


def test_parse_error_is_usage_error(capsys):
    assert main(["cuntz", "normalize", "T0*"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["decompose", "haagerup_even", "t*bogus"]) == 2
    assert main(["wzw", "ghj", "--graph", "D5"]) == 2


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["angle", "cocommuting", "--pn", "3"])
    assert exc.value.code == 2


def test_a_negative_value_in_exponent_form_is_read_as_a_value(capsys):
    # argparse alone takes -1e-3 for an option; -0.001 and --s=-1e-3 always worked
    for argv, code in ((["angle", "candidates", "--d", "4", "--s"], 0),
                       (["haagerup", "verify", "--perturb"], 1)):
        assert main(argv + ["-1e-3", "--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"][argv[-1][2:]] == -0.001
        assert main(argv[:-1] + [argv[-1] + "=-1e-3", "--json"]) == code
        assert json.loads(capsys.readouterr().out) == doc
        assert main(argv + ["-.5e-2", "--json"]) == code
        assert json.loads(capsys.readouterr().out)["inputs"][argv[-1][2:]] == -0.005


@pytest.mark.parametrize("expr", ["-T0", "-S0*T1^", "-T2*T1 + 2*T0^*T1"])
def test_a_cuntz_expression_may_start_with_minus_and_a_generator(expr, capsys):
    # `cuntz normalize` reads -T0 as its expression, as it reads it after "--"
    for flags in ([], ["--json"], ["--tolerance", "1e-3"]):
        assert main(["cuntz", "normalize"] + flags + ["--", expr]) == 0
        after_dashes = capsys.readouterr()
        assert main(["cuntz", "normalize", expr] + flags) == 0
        assert capsys.readouterr() == after_dashes
    assert main(["cuntz", "normalize", "-T0"]) == 0
    assert capsys.readouterr().out == "-T0\n"


def test_classify_all(capsys):
    assert main(["classify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "7/7 passing" in out
    assert main(["classify", "--case", "d6a4"]) == 0
    assert main(["classify", "--exclusions"]) == 0
    assert main(["classify", "--case", "zzz"]) == 2


def test_haagerup_verify(capsys):
    assert main(["haagerup", "verify"]) == 0
    out = capsys.readouterr().out
    assert "all relations hold" in out
    assert "isometry_relations" in out


def test_haagerup_verify_honours_tolerance(capsys):
    # residuals of a few 1e-16 fail a tolerance of 1e-30
    assert main(["haagerup", "verify", "--tolerance", "1e-30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "FAILURES present" in out
    assert main(["--json", "haagerup", "verify", "--tolerance", "1e-30"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["tolerance"] == 1e-30
    assert not doc["results"]["all_pass"]
    assert main(["--json", "haagerup", "verify"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["tolerance"] == 1e-9


def test_haagerup_verify_perturb(capsys):
    assert main(["haagerup", "verify"]) == 0
    baseline = capsys.readouterr().out
    assert main(["haagerup", "verify", "--perturb", "0"]) == 0
    assert capsys.readouterr().out == baseline
    assert main(["haagerup", "verify", "--perturb", "1e-3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines if line.endswith("FAIL")) == [
        "isometry_relations", "s0_intertwines_rho_squared"]
    assert lines[-1] == "FAILURES present"


@pytest.mark.parametrize("argv, message", [
    (["dims", "d6_even", "--k", "3"], "error: d6_even takes no level parameter\n"),
    (["validate", "d6_even", "--k", "3"], "error: d6_even takes no level parameter\n"),
    (["decompose", "haagerup_even", "r*r", "--k", "3"],
     "error: haagerup_even takes no level parameter\n"),
    (["hom", "e6_even", "a", "a", "--k", "1"], "error: e6_even takes no level parameter\n"),
    (["dims", "su2"], "error: su2 requires an integer level k >= 1\n"),
    (["dims", "--file", "FILE", "--k", "3"], "error: --file takes no level parameter\n"),
    (["validate", "--file", "FILE", "--k", "3"], "error: --file takes no level parameter\n"),
    (["dims", "e6_even", "--file", "FILE"],
     "error: give a catalog ring name or --file, not both\n"),
    (["validate", "d6_even", "--file", "FILE"],
     "error: give a catalog ring name or --file, not both\n"),
    (["validate"], "error: a catalog ring name or --file is required\n"),
    (["dims"], "error: a catalog ring name or --file is required\n"),
])
def test_level_must_match_the_ring(argv, message, tmp_path, capsys):
    # FILE is the d6_even ring saved to disk
    path = tmp_path / "d6.json"
    catalog.save(catalog.builtin("d6_even"), str(path))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_cuntz_normalize(capsys):
    assert main(["cuntz", "normalize", "T0^*T0 + S0^*T1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # a coefficient with both parts prints in parentheses, with the sign of i
    for text, out in (("T0 + 2i*T0", "(1+2i)*T0"), ("T0 - 2i*T0", "(1-2i)*T0")):
        assert main(["cuntz", "normalize", text]) == 0
        assert capsys.readouterr().out == out + "\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["--json", "--out", str(target),
                 "wzw", "asymptotic", "--n", "7"]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert len(doc["results"]["angles_radians"]) == 2


def test_tolerance_flag_reaches_library(capsys):
    # |s| = 1.2 violates the default bound but passes at tolerance 0.5
    assert main(["angle", "candidates", "--d", "3", "--s", "1.2"]) == 2
    assert main(["angle", "candidates", "--d", "3", "--s", "1.2",
                 "--tolerance", "0.5"]) == 0


def test_tolerance_flag_leaves_environment_unchanged(capsys):
    # the tolerance reaches the library as an argument, never through os.environ
    before = dict(os.environ)
    assert main(["angle", "candidates", "--d", "3", "--s", "1.2",
                 "--tolerance", "0.5"]) == 0
    assert main(["haagerup", "verify", "--tolerance", "1e-30"]) == 1
    assert main(["cuntz", "normalize", "T0*", "--tolerance", "1e-3"]) == 2
    assert dict(os.environ) == before
    src = Path(__file__).parents[1] / "src" / "sectorwb"
    assert [f.name for f in sorted(src.glob("*.py")) if "os.environ" in f.read_text()] == []


def test_haagerup_qsystem_honours_tolerance(capsys):
    assert main(["--json", "haagerup", "qsystem"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["results"]) == {"solutions", "tolerance"}
    assert doc["results"]["tolerance"] == 1e-9
    # residuals of a few 1e-16 fail a tolerance of 1e-30: an error line, no traceback
    for extra in ([], ["--json"]):
        assert main(extra + ["haagerup", "qsystem", "--tolerance", "1e-30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "1e-30" in captured.err


def test_dims_su2(capsys):
    assert main(["dims", "su2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "l1" in out and "1.41421356237" in out


def test_dims_text_of_catalog_rings_matches_power_iteration(capsys):
    for entry in catalog.ENTRIES:
        if entry.parametrized:
            continue
        dims = _oracles.pf_dimensions_power(catalog.builtin(entry.key))
        assert main(["dims", entry.key]) == 0
        assert capsys.readouterr().out == "".join(f"{lab}: {d:.12g}\n" for lab, d in dims.items())


def test_dims_su2_text_is_the_closed_form(capsys):
    # Every printed line for levels 1-60 is the 12-digit rounding of
    # sin((i+1)q)/sin(q), q = pi/(k+2): no 12-digit output is closer.
    for k in range(1, 61):
        assert main(["dims", "su2", "--k", str(k)]) == 0
        q = math.pi / (k + 2)
        assert capsys.readouterr().out == "".join(
            f"l{i}: {math.sin((i + 1) * q) / math.sin(q):.12g}\n" for i in range(k + 1))


@pytest.mark.parametrize("ring", [[e.key] for e in catalog.ENTRIES if not e.parametrized] +
                         [["su2", "--k", str(k)] for k in (1, 4, 30, 80, 118)], ids=" ".join)
def test_dims_of_a_shipped_ring_match_the_eigen_solve(ring, capsys):
    # dims prints exact or closed-form values without building an array; at
    # the 12 digits printed they are the eigen-solve's, as text and as JSON
    ring_obj = catalog.builtin(ring[0], int(ring[2]) if ring[1:] else None)
    dims = fusion.pf_dimensions(ring_obj)
    assert main(["dims", *ring]) == 0
    assert capsys.readouterr().out == "".join(f"{lab}: {d:.12g}\n" for lab, d in dims.items())
    assert main(["dims", *ring, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {
        "ring": ring_obj.name, "dimensions": {lab: float(f"{d:.12g}") for lab, d in dims.items()}}


def test_dims_of_a_ring_file_is_the_eigen_solve(tmp_path, capsys):
    ring = catalog.builtin("d6_even")
    path = tmp_path / "d6.json"
    catalog.save(ring, str(path))
    dims = fusion.pf_dimensions(ring)
    assert main(["dims", "--file", str(path)]) == 0
    assert capsys.readouterr().out == "".join(f"{lab}: {d:.12g}\n" for lab, d in dims.items())
    assert main(["dims", "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {
        "ring": "d6_even", "dimensions": {lab: float(f"{d:.12g}") for lab, d in dims.items()}}


@pytest.mark.parametrize("argv, spectrum, text", [
    # two angles, listed in both units
    (["wzw", "asymptotic", "--n", "7"], wzw.asymptotic_spectrum(7).angles,
     ["angle = 0.699185164541 rad", "angle = 1.1437177404 rad"]),
    # J = 0, 8, 16 gives the ratios 1, 0 and 1: no angle, yet not commuting
    (["wzw", "ghj", "--graph", "E7"], (),
     ["graph E7: level 16, J = [0, 8, 16]", "empty angle spectrum"]),
    # the float ratio printed no angle here, and 10^150 was refused
    (["wzw", "spectrum", "--k", "200000", "--J", "0,1"],
     (_oracles.i0_one_angle_decimal(200000, 1),), ["angle = 2.72067183974e-05 rad"]),
    (["wzw", "spectrum", "--k", str(10 ** 150), "--J", "0,1"],
     (_oracles.i0_one_angle_decimal(10 ** 150, 1),), ["angle = 5.4413980927e-150 rad"]),
], ids=["asymptotic", "ghj-E7", "k200000", "k1e150"])
def test_spectrum_text_and_degrees(argv, spectrum, text, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == text
    assert main(["--json"] + argv + ["--degrees"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["commuting"] is False
    assert doc["angles_radians"] == [float(f"{a:.12g}") for a in spectrum]
    assert doc["angles_degrees"] == [float(f"{math.degrees(a):.12g}") for a in spectrum]


def test_the_ci_smoke_block_replays_under_bash(tmp_path):
    # the workflow file is the only copy of the lines: they run as CI runs
    # them, under bash -e, with an swb on PATH that runs this checkout; the
    # ERR trap names the line where bash stops
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    block = re.search(r"- name: Console script smoke test\n +run: \|\n((?: {10}.*\n)+)", workflow)
    lines = textwrap.dedent(block.group(1)).splitlines()
    shim = tmp_path / "swb"
    shim.write_text(f"#!/bin/sh\nPYTHONPATH={shlex.quote(_ENV['PYTHONPATH'])} "
                    f'exec {shlex.quote(sys.executable)} -m sectorwb.cli "$@"\n')
    shim.chmod(0o755)
    script = "trap 'echo \"smoke line $LINENO failed\" >&2' ERR\n" + "\n".join(lines)
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=Path(__file__).parents[1],
                          env=dict(_ENV, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}"),
                          capture_output=True, text=True)
    failed = [lines[int(n) - 2] for n in re.findall(r"smoke line (\d+) failed", proc.stderr)]
    assert proc.returncode == 0, f"failing smoke lines {failed}\n{proc.stderr[-2000:]}"


def test_the_ci_cuntz_rho_step_replays_under_bash(tmp_path):
    # one second of the cuntz-rho workload, every word shape with both
    # identities, read from the workflow and run as CI runs it, with the
    # python3 on PATH the interpreter running these tests
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"- name: Cuntz identities on every word shape\n(?: +#.*\n)* +run: \|\n"
                     r"((?: {10}.*\n)+)", workflow)
    python3 = tmp_path / "python3"
    python3.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} "$@"\n')
    python3.chmod(0o755)
    proc = subprocess.run(["bash", "-e", "-c", textwrap.dedent(step.group(1))],
                          cwd=Path(__file__).parents[1], capture_output=True, text=True,
                          env=dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}"))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert '"failed": 0' in proc.stdout


def test_indistinguishable_i0_one_angles_exit_2_naming_the_level_and_labels():
    k, j = 10 ** 17, 10 ** 17 // 2
    proc = subprocess.run(_SWB + ["wzw", "spectrum", "--k", str(k), "--J", f"0,{j - 1},{j - 2}"],
                          env=_ENV, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: at level k = {k}, a float cannot tell apart the angles "
                           f"of labels j = {j - 2} and {j - 1}\n")


def test_dims_at_level_139_print_the_closed_form(capsys):
    # here the eigen-solve is off by about 4e-14 and rounds l24 and l115 to
    # 23.729074751; the closed form is within 7e-15 of the 40-digit value
    # 23.7290747509499841...
    assert main(["dims", "su2", "--k", "139"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(f"l{j}: {math.sin((j + 1) * math.pi / 141) / math.sin(math.pi / 141):.12g}\n"
                          for j in range(140))
    assert "l24: 23.7290747509\n" in out and "l115: 23.7290747509\n" in out


def test_classify_takes_no_tolerance(capsys):
    # every row is exact: --tolerance is refused, and the JSON names none
    for which in (["--all"], ["--case", "a5a3"], ["--exclusions"]):
        for argv, message in ((["--tolerance", "1e-30", "classify"] + which, ROOT_TOLERANCE),
                              (["classify"] + which + ["--tolerance", "1e-30"],
                               "swb: error: unrecognized arguments: --tolerance 1e-30\n")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(message)
        assert main(["--json", "classify"] + which) == 0
        doc = json.loads(capsys.readouterr().out)["results"]
        assert "tolerance" not in doc and doc["passed"] == doc["total"]


def test_a_wrong_catalog_dimension_fails_classify(monkeypatch, capsys):
    # d(r) = 1 + sqrt(13) in haagerup_even fails the exclusions' PF agreement
    entries = tuple(e._replace(dims={**e.dims, "r": (1, 1, 13)})
                    if e.key == "haagerup_even" else e for e in catalog.ENTRIES)
    monkeypatch.setattr(catalog, "ENTRIES", entries)
    assert main(["classify", "--exclusions"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] pf_agreement: d(t*r) = d(t) d(r) fails\n" in out
    assert out.endswith("3/4 passing\n")


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_golden_output(record, capsys):
    # every command of the README's CLI list, as text and as --json
    assert main(record["argv"]) == record["code"]
    assert capsys.readouterr().out == record["stdout"]


HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_help.json").read_text(encoding="utf-8"))
if sys.version_info >= (3, 13):
    # argparse 3.13 keeps the root usage's "..." on the line of its choices: the
    # records it prints differently replace those of the base file
    _OVERLAY = {tuple(r["argv"]): r for r in json.loads(
        (Path(__file__).parent / "golden_help_3.13.json").read_text(encoding="utf-8"))}
    HELP_GOLDEN = [_OVERLAY.get(tuple(r["argv"]), r) for r in HELP_GOLDEN]


@pytest.mark.parametrize("record", HELP_GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_help_and_usage_errors_match_golden_records(record, monkeypatch, capsys):
    # the root's, every group's and every command's --help and a few usage
    # errors, recorded as `COLUMNS=80 swb ARGV` before the parser filled its
    # commands on dispatch
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(record["argv"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == \
        (record["code"], record["stdout"], record["stderr"])


LIGHT_COMMANDS = [
    ["catalog", "list"],
    ["angle", "cocommuting", "--pn", "3", "--mp", "2"],
    ["angle", "group", "--g", "24", "--h", "6", "--k", "6", "--hk", "2"],
    ["angle", "candidates", "--d", "4.3", "--s", "0.2"],
    ["angle", "bound", "--pn", "3.41421356"],
    ["wzw", "spectrum", "--k", "10", "--i0", "1", "--J", "0,6"],
    ["wzw", "ghj", "--graph", "E6"],
    ["wzw", "asymptotic", "--n", "7"],
    ["wzw", "6j", "--m", "4", "--spins", "3,3/2,3/2,1,3/2,3/2"],
    ["haagerup", "verify"],
    ["haagerup", "qsystem"],
    ["cuntz", "normalize", "T0^*T0 + S0^*T1"],
]

# commands on shipped rings read exact dimensions and sparse rows, build no
# fusion-ring array and so import no numpy; only validate and --file rings do
RING_COMMANDS = [["decompose", "d6_even", "r*r1"], ["hom", "haagerup_even", "r*r", "1 + t"],
                 ["hom", "su2", "l1*l1", "l0 + l2", "--k", "4"]]
# shipped dimensions build no ring: a fixed ring's are its entry's exact values,
# su2's the closed form
FIXED_DIMS_COMMANDS = [["dims", "e6_even"]]
SU2_DIMS_COMMANDS = [["dims", "su2", "--k", "30"]]
CLASSIFY_COMMANDS = [["classify", "--case", "a5a3"], ["classify", "--all"],
                     ["classify", "--exclusions"]]
NO_NUMPY_COMMANDS = (LIGHT_COMMANDS + RING_COMMANDS + FIXED_DIMS_COMMANDS + SU2_DIMS_COMMANDS
                     + CLASSIFY_COMMANDS)

_NUMPY_PROBE = """
import contextlib, io, json, sys
from sectorwb.cli import main
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    seen.append("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "e6_even"]) == 0
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_light_commands_do_not_import_numpy():
    # importing the CLI and running the light commands, the ring commands on
    # shipped rings and classify leaves numpy unloaded; validate shows the
    # probe can see it load
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(NO_NUMPY_COMMANDS)],
                          env=env, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen == [False] * (1 + len(NO_NUMPY_COMMANDS)) + [True], seen


_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
_SWB = [sys.executable, "-c", "import sys; from sectorwb.cli import main; sys.exit(main())"]

# the commands arrive as a Python literal, so the probe itself imports no json
_MODULES_PROBE = """
import contextlib, io, sys
import sectorwb
if len(sys.argv) > 1:
    from sectorwb.cli import main
    for argv in eval(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
print(" ".join(sorted(sys.modules)))
"""

@pytest.mark.parametrize("family, modules", [
    (None, []),
    ("catalog", ["_base", "catalog", "cli"]),
    ("angle", ["_base", "angles", "cli"]),
    ("wzw", ["_base", "angles", "cli", "wzw"]),
    ("haagerup", ["_base", "cli", "cuntz"]),
    ("cuntz", ["_base", "cli", "cuntz"]),
    ("dims su2", ["_base", "catalog", "cli"]),
    ("dims e6_even", ["_base", "catalog", "cli"]),
    ("ring", ["_base", "catalog", "cli", "fusion"]),
    ("classify", ["_base", "angles", "catalog", "classify", "cli", "fusion", "scalar", "wzw"]),
], ids=["import", "catalog", "angle", "wzw", "haagerup", "cuntz", "dims-su2", "dims-e6_even",
        "ring", "classify"])
def test_command_families_load_only_their_modules(family, modules):
    # each family runs in a fresh interpreter; `import sectorwb` alone loads
    # no submodule.  No command loads dataclasses, and the text output of
    # every family, ring commands on shipped rings and classify among them,
    # loads none of inspect, json and numpy (which imports inspect itself);
    # validate is the one ring command that loads numpy.  fractions loads
    # only with scalar's QuadExt or for a 6j symbol (wzw 6j)
    commands = {"ring": RING_COMMANDS, "dims su2": SU2_DIMS_COMMANDS,
                "dims e6_even": FIXED_DIMS_COMMANDS, "classify": CLASSIFY_COMMANDS}.get(
        family, [argv for argv in LIGHT_COMMANDS if argv[0] == family])
    extra = [repr(commands)] if family else []
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE] + extra,
                          env=_ENV, capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert [m for m in loaded if m.startswith("sectorwb.")] == [f"sectorwb.{m}" for m in modules]
    assert "dataclasses" not in loaded
    assert not {"inspect", "json", "numpy"} & set(loaded)
    assert ("fractions" in loaded) == ("scalar" in modules or family == "wzw")
    assert ("decimal" in loaded) == ("fractions" in loaded)


def _d6_file(path, **fields):
    path.write_text(json.dumps(dict(catalog.ring_to_dict(catalog.builtin("d6_even")), **fields)))
    return str(path)


@pytest.mark.parametrize("argv, code, first_line", [
    (["cuntz", "normalize", "T0*"], 2, "error: expected a generator (at position 3)"),
    (["haagerup", "qsystem", "--tolerance", "1e-30"], 1,
     "error: the coefficient system is not solved within tolerance 1e-30 (residuals {"),
    (["wzw", "6j", "--m", "4", "--spins", "1/0,1,1,1,1,1"], 2,
     "error: spin 1/0 is not a nonnegative half-integer"),
    (["wzw", "6j", "--m", "1", "--spins", "0,0,0,0,0,0"], 2,
     "error: root-of-unity order m must be an integer >= 2"),
    (["wzw", "6j", "--m", "2001", "--spins", "200,200,200,200,200,200"], 2,
     "error: q-factorial index 171 overflows a float at m = 2001"),
    (["wzw", "asymptotic", "--n", str(wzw.MAX_ASYMPTOTIC_N + 1)], 2,
     f"error: n = {wzw.MAX_ASYMPTOTIC_N + 1} is above the cap n <= {wzw.MAX_ASYMPTOTIC_N}"),
    (["decompose", "e6_even", "e*"], 2, "error: empty factor (at position 2)"),
    (["dims", "nope"], 2, "error: unknown catalog key 'nope'"),
    (["validate", "--file", "CORRUPT"], 1, None),
    (["dims", "--file", "CORRUPT"], 1, "error: fusion-ring axioms violated:"),
    (["validate", "--file", "NAMED"], 2, "error: name must be a string"),
    (["dims", "--file", "MISSING"], 2, "error: [Errno 2] No such file or directory: "),
    (["angle", "candidates", "--d", "1e200", "--s", "0.5"], 2,
     "error: (d_sigma - 1)^2 s^2 overflows a float at d_sigma = 1e+200, s = 0.5"),
    (["dims", "su2", "--k", str(catalog.MAX_LEVEL + 1)], 2,
     f"error: su2 level k = {catalog.MAX_LEVEL + 1} is above the cap k <= {catalog.MAX_LEVEL}"),
    (["angle", "cocommuting", "--pn", "1e308", "--mp", "2"], 2,
     "error: mp (pn - 1) overflows a float at pn = 1e+308, mp = 2.0"),
    # int() and Fraction() would read these as 6, 10 and 3
    (["wzw", "spectrum", "--k", "10", "--J", "0,\u0666"], 2,
     "error: label \u0666 in J is not a nonnegative integer"),
    (["wzw", "spectrum", "--k", "10", "--J", "0,1_0"], 2,
     "error: label 1_0 in J is not a nonnegative integer"),
    # an empty label is refused, not dropped
    (["wzw", "spectrum", "--k", "10", "--J", "0,,6"], 2,
     "error: label '' in J is not a nonnegative integer"),
    (["wzw", "spectrum", "--k", "10", "--J", "0,6,"], 2,
     "error: label '' in J is not a nonnegative integer"),
    (["wzw", "spectrum", "--k", "10", "--J", ""], 2,
     "error: label '' in J is not a nonnegative integer"),
    (["wzw", "6j", "--m", "4", "--spins", "1,,1,1,1,1"], 2,
     "error: spin '' is not a nonnegative half-integer"),
    (["wzw", "6j", "--m", "4", "--spins", "\u0663,3/2,3/2,1,3/2,3/2"], 2,
     "error: spin \u0663 is not a nonnegative half-integer"),
    # integers beyond float range
    (["angle", "group", "--g", str(6 * 10 ** 400), "--h", "6", "--k", "6", "--hk", "2"], 2,
     "error: indices must both fit in a float"),
    (["wzw", "spectrum", "--k", str(10 ** 400), "--J", "0,1"], 2,
     "error: the level k and its labels must fit in a float"),
    # fits a float, but sin(3 pi/2n) sin(pi/2n) of the i0 = 1 angle underflows
    (["wzw", "spectrum", "--k", str(10 ** 200), "--J", "0,1"], 2,
     "error: the level k = 1e+200 is too large: its angles underflow"),
    (["wzw", "6j", "--m", str(10 ** 400), "--spins", "1,1,1,1,1,1"], 2,
     "error: the root-of-unity order m must fit in a float"),
    (["wzw", "spectrum", "--k", "5", "--J", "1,2"], 2, "error: J must contain 0"),
    (["wzw", "spectrum", "--k", "5", "--J", "0,9"], 2, "error: J must be a subset of {0..k}"),
    (["wzw", "6j", "--m", "4", "--spins", "1,1,1,1,1"], 2,
     "error: exactly six spins are required"),
], ids=["cuntz-syntax", "qsystem", "spin", "sixj-domain", "sixj-overflow",
        "asymptotic-cap", "expr-syntax", "lookup",
        "validate-corrupt", "dims-corrupt", "name-not-string", "file-missing",
        "candidates-overflow",
        "su2-level-cap", "cocommuting-overflow", "J-arabic-digit", "J-underscore",
        "J-empty-item", "J-trailing-comma", "J-empty", "spin-empty-item",
        "spin-arabic-digit", "group-int-overflow", "spectrum-int-overflow",
        "spectrum-underflow", "sixj-int-overflow", "J-without-0", "J-above-k",
        "five-spins"])
def test_error_exits_in_a_fresh_interpreter(argv, code, first_line, tmp_path, capsys):
    # the exception classes main() names belong to modules that a fresh
    # process has not loaded when the command fails; the in-process run
    # below sees every module already imported, and must print the same
    tensor = catalog.ring_to_dict(catalog.builtin("d6_even"))["tensor"]
    tensor["r,r"]["r1"] = 5
    files = {"CORRUPT": _d6_file(tmp_path / "corrupt.json", tensor=tensor),
             "NAMED": _d6_file(tmp_path / "named.json", name=["x"]),
             "MISSING": str(tmp_path / "missing.json")}
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run(_SWB + argv, env=_ENV, capture_output=True, text=True)
    assert proc.returncode == code
    if first_line is None:
        assert proc.stderr == ""
        assert proc.stdout.startswith(f"{argv[-1]}: 11 error(s)\n")
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith(first_line)
        assert proc.stderr.count("error: ") == 1
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (proc.stdout, proc.stderr)


def test_a_closed_stdout_ends_the_command_quietly():
    # the reader closes the pipe after the first line while swb still writes:
    # the 60 kB expression appears three times in the JSON, more than a pipe
    # holds.  swb prints nothing to stderr, not even at exit, and keeps the
    # command's own exit code
    expr = "*".join(["T0", "T1", "S0", "T2"] * 5000)
    proc = subprocess.Popen(_SWB + ["cuntz", "normalize", expr, "--json"], env=_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    with proc.stderr:
        assert proc.stdout.read(2) == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_every_package_error_is_caught_by_main():
    # main() catches QSystemError by name and every other package error as
    # the ValueError it subclasses
    for name in sectorwb.__all__:
        if name.endswith("Error"):
            cls = getattr(sectorwb, name)
            assert issubclass(cls, ValueError) or cls is sectorwb.QSystemError, name



COMMUTING = "commuting (empty angle spectrum)"


@pytest.mark.parametrize("tol, argv, default, loose", [
    # pn - mp = 1 is within 1.5 of equal indices, which commute; |0.3| is
    # within 0.5 of zero, so the term is pruned; the group orders give integer
    # indices 4 and 3, which no tolerance makes equal, so it refuses one
    ("1.5", ["angle", "cocommuting", "--pn", "3", "--mp", "2"],
     "angle = 1.0471975512 rad", COMMUTING),
    ("1", ["angle", "group", "--g", "24", "--h", "6", "--k", "6", "--hk", "2"],
     "angle = 1.23095941734 rad", None),
    ("0.5", ["cuntz", "normalize", "0.3*T0 + T1"], "0.3*T0 + T1", "T1"),
], ids=["cocommuting", "group", "normalize"])
def test_tolerance_reaches_angle_and_cuntz(tol, argv, default, loose, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == default
    if loose is None:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tolerance", tol])
        assert exc.value.code == 2
        return
    assert main(argv + ["--tolerance", tol]) == 0
    assert capsys.readouterr().out.splitlines()[0] == loose


def test_unwritable_out_is_an_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "missing" / "x"), "catalog", "list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "missing" in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, message", [
    (["dims", "nope"], "error: unknown catalog key 'nope'\n"),
    (["classify", "--case", "nope"], "error: unknown case id 'nope'\n"),
])
def test_lookup_errors_are_printed_unquoted(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-30", "x"])
def test_bad_tolerance_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["haagerup", "verify", "--tolerance", value])
    assert exc.value.code == 2
    assert "argument --tolerance" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--tolerance", value, "haagerup", "verify"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(ROOT_TOLERANCE)


def test_zero_tolerance_is_accepted(capsys):
    assert main(["cuntz", "normalize", "1e-20*T0 + T1", "--tolerance", "0"]) == 0
    assert capsys.readouterr().out == "1e-20*T0 + T1\n"


@pytest.mark.parametrize("argv, message", [
    (["angle", "candidates", "--d", "3", "--s", "nan"], "s must be finite"),
    (["angle", "candidates", "--d", "inf", "--s", "0.5"], "d_sigma must be finite"),
    (["angle", "bound", "--pn", "inf"], "pn must be finite"),
    (["angle", "bound", "--pn", "nan"], "pn must be finite"),
    (["angle", "cocommuting", "--pn", "inf", "--mp", "2"], "indices must both be finite"),
    (["angle", "cocommuting", "--pn", "3", "--mp", "nan"], "indices must both be finite"),
    (["cuntz", "normalize", "T1 + 1e400*T0"], "coefficient 1e400 is not finite (at position 5)"),
    (["cuntz", "normalize", "1e308*T0 + 1e308*T0"], "coefficient of T0 overflows to inf"),
    (["cuntz", "normalize", "1e308*T0*T0^*T0 - 1e308*T0 - 1e308*T0"],
     "coefficient of T0 overflows to -inf"),
    (["haagerup", "verify", "--perturb", "nan"], "A(1,2) must be finite"),
    (["haagerup", "verify", "--perturb", "inf"], "A(1,2) must be finite"),
    (["--json", "haagerup", "verify", "--perturb", "nan"], "A(1,2) must be finite"),
    (["haagerup", "verify", "--perturb", "1e200"], "overflows to"),
])
def test_non_finite_inputs_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return {tuple(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("swb ")}


def test_readme_commands_match_golden_records():
    # every README command has a text and a --json golden record, and back
    readme = _readme_commands()
    assert readme
    argvs = {tuple(r["argv"]) for r in GOLDEN}
    assert argvs == readme | {argv + ("--json",) for argv in readme}


@pytest.mark.parametrize("spins", ["1/0,1,1,1,1,1", "1/3,1,1,1,1,1"])
def test_bad_spin_is_a_usage_error(spins, capsys):
    bad = spins.split(",")[0]
    assert main(["wzw", "6j", "--m", "4", "--spins", spins]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: spin {bad} is not a nonnegative half-integer\n"


def _leaves(parser, path=()):
    # (command words, parser) of every command whose parser has been filled
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
    if parser.get_default("handler"):
        yield path, parser


def test_commands_take_only_the_flags_their_handlers_read(tmp_path):
    # --tolerance and --degrees go after the subcommand, on exactly the
    # commands whose handler reads them; --json and --out go on every command,
    # before or after it.  Each command of the table runs as its shortest
    # golden record, and parsing it fills its own parser and no other.
    parser = build_parser()
    assert len(cli._COMMANDS) == 17
    readers = {"tolerance": [], "degrees": []}
    for path, (handler, _, _) in cli._COMMANDS.items():
        record = min((r for r in GOLDEN if tuple(r["argv"][:len(path)]) == path
                      and "--json" not in r["argv"]), key=lambda r: len(r["argv"]))
        argv, source = record["argv"], inspect.getsource(handler)
        fresh = build_parser()
        assert list(_leaves(fresh)) == []
        assert fresh.parse_args(argv).handler is handler
        assert [words for words, _ in _leaves(fresh)] == [path]
        for flag, value, given in (("tolerance", ["1e-3"], 1e-3), ("degrees", [], True)):
            if f"args.{flag}" in source:
                readers[flag].append(" ".join(path))
                assert getattr(parser.parse_args(argv + [f"--{flag}"] + value), flag) == given
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + [f"--{flag}"] + value)
                assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([f"--{flag}"] + value + argv)
            assert exc.value.code == 2
        json_doc = next(r["stdout"] for r in GOLDEN if r["argv"] == argv + ["--json"])
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["--json", "--out", str(before)] + argv) == record["code"]
        assert main(argv + ["--json", "--out", str(after)]) == record["code"]
        assert before.read_text() == after.read_text() == json_doc
    assert readers == {
        "tolerance": ["angle cocommuting", "angle candidates", "haagerup verify",
                      "haagerup qsystem", "cuntz normalize"],
        "degrees": ["angle cocommuting", "angle group", "angle candidates", "angle bound",
                    "wzw spectrum", "wzw ghj", "wzw asymptotic"]}


TOLERANCE = "1.23456789012345e-10"  # 15 digits: a rounded copy would differ
ROUNDING_INPUTS = [
    ["catalog", "list"],
    ["validate", "su2", "--k", "4"],
    ["dims", "su2", "--k", "97"],
    ["decompose", "su2", "l1*l2*l3", "--k", "9"],
    ["hom", "su2", "l1*l1", "l0+l2", "--k", "3"],
    ["angle", "cocommuting", "--pn", "3.14159265358979", "--mp", "2.718281828459045",
     "--degrees", "--tolerance", TOLERANCE],
    ["angle", "group", "--g", "8", "--h", "2", "--k", "2", "--hk", "1", "--degrees"],
    ["angle", "candidates", "--d", "3.3027756377", "--s", "0.4", "--degrees",
     "--tolerance", TOLERANCE],
    ["angle", "bound", "--pn", "5.3", "--degrees"],
    ["wzw", "spectrum", "--k", "97", "--i0", "3", "--J", "0,1,2,5,17,40", "--degrees"],
    ["wzw", "ghj", "--graph", "E8", "--degrees"],
    ["wzw", "asymptotic", "--n", "17", "--degrees"],
    ["wzw", "6j", "--m", "13", "--spins", "5/2,3,7/2,2,3/2,4"],
    ["haagerup", "verify", "--perturb", "1e-3", "--tolerance", TOLERANCE],
    ["haagerup", "qsystem", "--tolerance", TOLERANCE],
    ["cuntz", "normalize", "T0 + 2i*T0", "--tolerance", TOLERANCE],
    ["classify", "--case", "a7a7"],
]


def _floats(x):
    if isinstance(x, complex):
        yield from (x.real, x.imag)
    elif isinstance(x, float):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _floats(v)
    elif isinstance(x, list):
        for v in x:
            yield from _floats(v)


def _has_12_digits(x: float) -> bool:
    return float(f"{x:.12g}") == x


@pytest.mark.parametrize("argv", ROUNDING_INPUTS, ids=" ".join)
def test_json_floats_are_rounded_once_for_every_command(argv, capsys):
    # the handler hands main raw floats, some with more than 12 digits; main
    # rounds every float under results and residuals, then adds the exact tolerance
    args = build_parser().parse_args(argv)
    raw = list(_floats(args.handler(args)[1]))
    assert not raw or not all(map(_has_12_digits, raw))
    main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    tolerance = doc["results"].pop("tolerance", None)
    assert tolerance == (float(TOLERANCE) if TOLERANCE in argv else None)
    rounded = list(_floats([doc["results"], doc["residuals"]]))
    assert len(rounded) == len(raw) and all(map(_has_12_digits, rounded))


def test_the_rounding_inputs_cover_every_command():
    assert {build_parser().parse_args(argv).handler for argv in ROUNDING_INPUTS} \
        == {handler for handler, _, _ in cli._COMMANDS.values()}
