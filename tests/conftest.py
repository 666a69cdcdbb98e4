import numpy as np
import pytest

from gemfilter.cli import main
from gemfilter.model import LayerKV

# Per acceptance criterion: whether none of its setup, call and teardown failed.
_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if item.path.name == "test_acceptance.py":
        _acceptance_results[item.name] = _acceptance_results.get(item.name, True) and not rep.failed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed in _acceptance_results.items():
        terminalreporter.write_line(f"  {name}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture
def gathered_rows(monkeypatch):
    """Spy on :meth:`LayerKV.gather`: a copy of every call's ``rows``, in call order.

    Each entry is the ``(n_kv_heads, r)`` rows an evicted cache kept of the
    one it was gathered from.  Each call's kept keys and values are checked
    byte-equal to its source's rows at those indices, head by head.
    """
    seen = []
    real = LayerKV.gather

    def gather(cache, rows):
        kept = real(cache, rows)
        for j, head in enumerate(rows):
            assert kept.keys[j].tobytes() == cache.keys[j][head].tobytes()
            assert kept.values[j].tobytes() == cache.values[j][head].tobytes()
        seen.append(np.array(rows))
        return kept

    monkeypatch.setattr(LayerKV, "gather", gather)
    return seen


@pytest.fixture(scope="module")
def copy_model(tmp_path_factory):
    """The path of a copy model file that ``make-model`` wrote, one per test module."""
    path = tmp_path_factory.mktemp("models") / "copy.gfm"
    assert main(["make-model", "--out", str(path), "--kind", "copy"]) == 0
    return path
