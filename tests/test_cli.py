import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spherization_lab.cli import main
from spherization_lab.config import SCHEMA, load_config
from spherization_lab.errors import ConfigError


def write_config(path, body):
    path.write_text(body)
    return str(path)


GOOD = """
[experiment]
name = chord-census
seed = 7

[census]
horizon = 3.0
resolution = 128
"""


def test_load_and_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", GOOD))
    assert cfg.name == "chord-census"
    assert cfg.seed == 7
    assert cfg.get("census", "horizon") == 3.0
    assert cfg.get("manifold", "kind") == "torus"   # per-experiment default
    assert cfg.get("cutoff", "epsilon") == 0.2
    assert len(cfg.canonical_hash()) == 64


def test_unknown_keys_rejected(tmp_path):
    bad = GOOD + "\n[census]\nwhat = 3\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.ini", bad.replace(
            "[census]\nhorizon", "[census]\nwhat = 3\nhorizon")))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "d.ini",
                                 GOOD + "\n[nonsense]\nx = 1\n"))


def test_out_of_range_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.ini",
                                 GOOD.replace("horizon = 3.0",
                                              "horizon = -2.0")))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.ini",
                                 GOOD.replace("name = chord-census",
                                              "name = bogus")))


def test_validate_subcommand(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", GOOD)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_malformed_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini",
                        GOOD.replace("horizon = 3.0", "horizon = -1.0"))
    code = main(["run", path])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config-invalid"


def test_run_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", GOOD)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pass"] is True
    assert manifest["error"] is None
    assert (out / "chord-census.csv").exists()
    body = (out / "chord-census.csv").read_text()
    assert body.startswith("t,nu\n") and "\r" not in body


def test_env_var_output_dir(tmp_path, monkeypatch):
    path = write_config(tmp_path / "c.ini", GOOD)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SPHERIZATION_LAB_OUT", str(env_dir))
    assert main(["run", path]) == 0
    assert (env_dir / "manifest.json").exists()


def test_seed_override_changes_hash_echo(tmp_path):
    path = write_config(tmp_path / "c.ini", GOOD)
    out1ated = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", path, "--out", str(out1ated), "--seed", "7"]) == 0
    assert main(["run", path, "--out", str(out2), "--seed", "8"]) == 0
    m1 = json.loads((out1ated / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["seed"] == 7 and m2["seed"] == 8
    assert m1["config_hash"] != m2["config_hash"]


@pytest.mark.parametrize("override", [
    ["--seed", "-1"],
    ["--seed", "99999999999999999999"],     # above the schema's 2^63 - 1
    ["--seed", "seven"],
    ["--workers", "0"],                     # below the schema's minimum 1
])
def test_cli_overrides_obey_the_schema(tmp_path, capsys, override):
    path = write_config(tmp_path / "c.ini", GOOD)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)] + override) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-invalid"
    assert err["message"].startswith(override[0])
    assert not out.exists()


def test_manifest_written_on_failure(tmp_path, capsys):
    body = GOOD.replace("horizon = 3.0\nresolution = 128",
                        "horizon = 9.0\nresolution = 3000\n"
                        "max_candidates = 1000")
    path = write_config(tmp_path / "c.ini", body)
    out = tmp_path / "out"
    code = main(["run", path, "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["category"] == "budget-exceeded"
    assert manifest["pass"] is False


def test_divergence_exit_code(tmp_path, capsys):
    body = """
[experiment]
name = sol-entropy
seed = 7

[sol]
k = 1.0
mode = ensemble
count = 1
horizon = 50.0

[integrator]
rel_tol = 1e-3
abs_tol = 1e-5
drift_abort = 1e-13
"""
    path = write_config(tmp_path / "c.ini", body)
    out = tmp_path / "out"
    code = main(["run", path, "--out", str(out)])
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["category"] == "integration-diverged"


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path / "c.ini", GOOD)
    out = tmp_path / "out"
    # the child imports the package from src/ even without an install
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spherization_lab.cli", "run", path,
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pass=true" in proc.stdout


def _readme_config_keys():
    # the INI sections and keys the README's configuration block lists,
    # with its parenthetical notes dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configuration format", 1)[1]
    block = block.split("```", 2)[1]
    while "(" in block:     # innermost notes first: they may nest
        block = re.sub(r"\([^()]*\)", "", block)
    sections = {}
    for name, body in re.findall(r"\[(\w+)\]([^\[]*)", block):
        sections[name] = {k.strip() for k in body.split(",")}
    return sections


def test_readme_lists_exactly_the_schema_keys():
    documented = _readme_config_keys()
    assert list(documented) == list(SCHEMA)
    for section, keys in SCHEMA.items():
        assert documented[section] == set(keys), section



def test_percent_sign_in_a_value_is_literal(tmp_path, capsys):
    body = GOOD.replace("seed = 7", "seed = 7\nout_dir = runs/100%")
    path = write_config(tmp_path / "c.ini", body)
    assert main(["validate", path]) == 0
    assert load_config(path).get("experiment", "out_dir") == "runs/100%"


def test_non_utf8_config_exit_code(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_bytes(GOOD.encode() + b"# caf\xe9\n")
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"


@pytest.mark.parametrize("section, line", [
    ("action", "scales = 2.0 -2.0"),
    ("sol", "k_values = 0.75 -1.0"),
    ("action", "n_values = 1 0"),
    ("noncrossing", "n_values = -1"),
])
def test_every_vector_entry_obeys_the_range(tmp_path, capsys, section, line):
    path = write_config(tmp_path / "c.ini", GOOD + f"\n[{section}]\n{line}\n")
    assert main(["validate", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-invalid"
    assert err["message"].startswith(f"[{section}] {line.split()[0]}")


def test_vertex_budget_below_the_initial_mesh_exit_code(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", """
[experiment]
name = volume-growth

[volume]
resolution = 200
vertex_budget = 100
""")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["category"] == "config-invalid"


@pytest.mark.parametrize("section, line", [
    ("census", "horizon = nan"),
    ("manifold", "lattice = 1 0 0 nan"),
    ("sol", "k = inf"),
])
def test_non_finite_float_exit_code(tmp_path, capsys, section, line):
    # nan compares false with every bound: without its own check it would
    # validate and crash the run
    body = (GOOD.replace("horizon = 3.0", line) if section == "census"
            else GOOD + f"\n[{section}]\n{line}\n")
    path = write_config(tmp_path / "c.ini", body)
    for argv in (["validate", path], ["run", path, "--out",
                                      str(tmp_path / "out")]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert err["message"].startswith(f"[{section}] {line.split()[0]}")
