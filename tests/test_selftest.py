"""The registry of reference checks: each check as its own case, and the
report `smpverify selftest` prints when checks fail."""

import pytest

from smpverify import selftest


@pytest.mark.parametrize(
    "check", [fn for _, fn in selftest.CHECKS], ids=lambda fn: fn.__name__
)
def test_reference_check(check):
    check()


def test_failures_are_reported_and_the_other_checks_still_run(monkeypatch):
    def mismatch():
        assert 1 == 2, "forced mismatch"

    def bad_value():
        raise ValueError("forced error")

    checks = list(selftest.CHECKS)
    names = [name for name, _ in checks]
    failing = {0: mismatch, 5: bad_value}
    for index, fn in failing.items():
        checks[index] = (names[index], fn)
    monkeypatch.setattr(selftest, "CHECKS", checks)
    lines = []
    assert selftest.run_selftest(lines.append) == 1
    total = len(checks)
    # pytest rewrites the assert in mismatch, which appends its own explanation.
    assert lines[0].startswith(f"FAIL  {names[0]}: forced mismatch")
    assert lines[5] == f"FAIL  {names[5]}: forced error"
    assert lines[1:5] + lines[6:-1] == [
        f"PASS  {name}" for i, name in enumerate(names) if i not in failing
    ]
    assert lines[-1] == f"{total - 2}/{total} checks passed"
