"""Smoke tests: every script in demos/, the README quick start and its property checkers example run to completion."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


def _run_python(args, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_its_comment(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == code.rsplit("# ", 1)[1].strip() == "0 [110.   0.] 140.0"


def test_readme_property_checkers_block_prints_its_comment(tmp_path):
    section = (ROOT / "README.md").read_text().split("* **Property checkers**", 1)[1]
    code = textwrap.dedent(section.split("```python\n", 1)[1].split("```", 1)[0])
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "check_properties(draw, list(CHECKERS))" in code
    assert proc.stdout.strip() == code.rsplit("# ", 1)[1].strip() == "True True"
