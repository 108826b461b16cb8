"""Acceptance battery: every headline check at its full sample size.

Each test prints one PASS/FAIL line; the functions live in
``galecubics.selftests`` and are shared verbatim with the command-line
``selftest all``, and so is the budget table each check must stay within.
"""

import time

import pytest

from galecubics.selftests import BUDGET_SECONDS, CHECKS, DEFAULT_SEED


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_acceptance(check_id):
    start = time.perf_counter()
    passed, detail = CHECKS[check_id](DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"{status} {check_id} ({elapsed:.1f}s): {detail}")
    assert passed, f"{check_id}: {detail}"
    budget = BUDGET_SECONDS[check_id]
    assert elapsed < budget, f"{check_id} exceeded {budget}s ({elapsed:.1f}s)"
