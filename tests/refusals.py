"""One builder for the tests of every refusal table.

A test module states its refusals in one table, keyed by test name.  A row's
first item is its case id if it is a string or None; a test is parametrized
by its rows' cases, and one without cases checks its rows in turn.  A library
row is ([case,] call, error, message): ``call()``, its inputs built
beforehand, must raise exactly ``error`` with exactly ``message``.  No
nuisance fit, network fit or step, lasso sweep, draw or study worker may run
before any refusal.  A new refusal is a new row, not a test function.
"""

from contextlib import contextmanager

import pytest

from drnets import estimators, linmod, nnet, simlab

_SENTINELS = ((estimators, "_fit_learner"), (estimators, "mlp_fit"), (linmod, "_gram_cd"),
              (nnet, "_loss_grad"), (simlab, "parallel_map"), (simlab, "generate"))


@contextmanager
def no_work():
    """Stand-ins that fail the test in place of each fit, step, sweep, draw and worker."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in _SENTINELS:  # pytest.fail's outcome escapes `except Exception`
            patch.setattr(module, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
        yield


def _refuse(request, call, error, message):
    with no_work(), pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error and str(info.value) == message, repr(info.value)


def refusal_tests(table: dict, namespace: dict, check=_refuse) -> None:
    """Put each test of ``table`` into ``namespace``; ``check(request, *row)``
    checks one row without its case, reaching any fixture through ``request``."""
    for name, rows in table.items():
        cases: dict = {}
        for row in rows:
            case, *body = row if row[0] is None or type(row[0]) is str else (None, *row)
            cases.setdefault(case, []).append(body)
        if None in cases:
            def test(request, rows=cases[None]):
                for row in rows:
                    check(request, *row)
        else:
            @pytest.mark.parametrize("rows", [pytest.param(r, id=c) for c, r in cases.items()])
            def test(request, rows):
                for row in rows:
                    check(request, *row)
        test.__name__ = test.__qualname__ = name
        namespace[name] = test
