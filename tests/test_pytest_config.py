import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # with warnings as errors, reporting a hypothesis failure must not
    # turn a library's deprecation warning into an internal error that
    # stops the tests after it
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
