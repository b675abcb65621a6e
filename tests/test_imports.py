"""Each entry point imports only the modules it runs, each check in a fresh interpreter."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ringfisher

ANALYSIS = ("tuning", "fisher", "optimal", "mcsim")

#: Modules a CLI command never calls, so its process never loads them.
NOT_LOADED = {
    "decompose": ANALYSIS,
    "field2d": ("fisher", "optimal", "mcsim"),
    "fisher": ("optimal", "mcsim"),
    "optimize": ("mcsim",),
    "simulate": ("fisher", "optimal"),
}


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    # the child interpreter imports the same package as this one, installed or not
    package_root = str(Path(ringfisher.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_after(code: str) -> set[str]:
    out = _python("-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))").stdout
    return set(out.split())


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = _loaded_after("import ringfisher")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("ringfisher.")} == {"ringfisher._version"}


def test_loading_a_kernel_runs_io_and_spectral_only():
    kernel = resources.files("ringfisher").joinpath("data/demo_kernel.json")
    loaded = _loaded_after(f"import ringfisher.io\nringfisher.io.load_kernel({str(kernel)!r})")
    assert {m for m in loaded if m.startswith("ringfisher.")} == {
        "ringfisher._version", "ringfisher.errors", "ringfisher.io", "ringfisher.spectral",
    }
    assert "hashlib" not in loaded


def _importtime_modules(stderr: str) -> set[str]:
    """Module names from ``-X importtime`` lines: ``import time: self | cumulative | name``."""
    rows = [line.split("|")[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")]
    return set(rows[1:])  # the first row is the column header


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_cli_command_skips_the_modules_it_never_calls(tmp_path, command):
    data = resources.files("ringfisher").joinpath("data")
    kernel, config = str(data / "demo_kernel.json"), str(data / "demo_simulation.json")
    argv = {
        "decompose": [kernel, "d.csv"],
        "field2d": [kernel, "f.pgm", "f.csv", "--k", "1"],
        "fisher": [kernel, "f.json", "--dim", "2"],
        "optimize": [kernel, "o.json", "--curves-out", "c.csv"],
        "simulate": [config, "s.json"],
    }[command]
    proc = _python("-X", "importtime", "-m", "ringfisher", command, *argv, cwd=tmp_path)
    loaded = _importtime_modules(proc.stderr)
    assert {"ringfisher.cli", "ringfisher.io", "ringfisher.spectral"} <= loaded
    assert loaded.isdisjoint(f"ringfisher.{m}" for m in NOT_LOADED[command])
