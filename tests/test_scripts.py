import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _failed(block):
    return sorted(line.split()[1] for line in block if "[FAIL]" in line)


def test_haagerup_demo_perturbation(capsys):
    demo = _load("haagerup_demo")
    assert demo.main(["--perturb", "1e-3"]) == 0
    out = capsys.readouterr().out
    baseline = out.split("relation families:\n")[1].split("\n\n")[0].splitlines()
    perturbed = out.split("with A(1,2) shifted by 0.001:\n")[1].splitlines()
    assert len(baseline) == len(perturbed) == 6
    assert _failed(baseline) == [] and baseline[-1].startswith("  => all pass")
    assert _failed(perturbed) == ["isometry_relations", "s0_intertwines_rho_squared"]
    assert perturbed[-1].startswith("  => FAILURES")
