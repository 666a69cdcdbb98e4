import numpy as np
import pytest

from gemfilter.model import LayerKV

_acceptance_results = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance_results.append((item.name, rep.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed in _acceptance_results:
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
