"""The acceptance summary lists every criterion, whichever phase of it failed."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import gemfilter

TWO_CRITERIA = '''
import pytest


@pytest.fixture(scope="module")
def broken():
    raise RuntimeError("the shared runs failed")


def test_first_criterion():
    pass


def test_second_criterion(broken):
    pass
'''


def test_a_criterion_whose_setup_fails_is_listed_as_fail(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_acceptance.py").write_text(TWO_CRITERIA)
    src = str(Path(gemfilter.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout
    summary = done.stdout.split("acceptance criteria:\n", 1)[1].splitlines()
    assert summary[:2] == ["  test_first_criterion: PASS", "  test_second_criterion: FAIL"]
