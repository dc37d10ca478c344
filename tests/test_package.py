"""The package root: its exported names, its bound submodules, and the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

import tilesplat

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for name in tilesplat.__all__:
        assert getattr(tilesplat, name, None) is not None, name


def test_import_binds_the_benchmarked_submodules():
    # A fresh interpreter: in this one the tests have imported every submodule.
    code = (
        "import tilesplat\n"
        "for m in ('forward', 'backward', 'optim', 'sceneio'):\n"
        "    assert hasattr(tilesplat, m), m\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tilesplat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "out.ppm").read_bytes().startswith(b"P6")
    assert (tmp_path / "scene.ply").exists()
    assert "alpha_performed" in capsys.readouterr().out
