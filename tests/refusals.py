"""One harness for the library calls that are refused before any work.

A test module states its refusals in one table, keyed by test name.  A row is
(case, call, error, message), or (call, error, message) in a test that is not
parametrized.  ``call()``, its inputs built beforehand, must raise exactly
``error`` with exactly ``message``, and no nuisance fit, network fit or step,
lasso sweep, draw or study worker may run.  A new refusal is a new row, not a
test function.
"""

import pytest

from drnets import estimators, linmod, nnet, simlab

_SENTINELS = ((estimators, "_fit_learner"), (estimators, "mlp_fit"), (linmod, "_gram_cd"),
              (nnet, "_loss_grad"), (simlab, "parallel_map"), (simlab, "generate"))


def _refuse(monkeypatch, rows):
    for call, error, message in rows:
        with monkeypatch.context() as patch:
            for module, name in _SENTINELS:  # pytest.fail's outcome escapes `except Exception`
                patch.setattr(module, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
            with pytest.raises(Exception) as info:
                call()
        assert type(info.value) is error and str(info.value) == message, repr(info.value)


def refusal_tests(table: dict, namespace: dict) -> None:
    """Put each test of ``table`` into ``namespace``, parametrized by its rows' cases."""
    for name, rows in table.items():
        cases: dict = {}
        for row in rows:
            cases.setdefault(row[0] if len(row) == 4 else None, []).append(row[-3:])
        if None in cases:
            def test(monkeypatch, rows=cases[None]):
                _refuse(monkeypatch, rows)
        else:
            @pytest.mark.parametrize("rows", [pytest.param(r, id=c) for c, r in cases.items()])
            def test(monkeypatch, rows):
                _refuse(monkeypatch, rows)
        test.__name__ = test.__qualname__ = name
        namespace[name] = test
