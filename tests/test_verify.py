"""The whole invariant suite of ``qscramble verify``, one test per check."""

import pytest

from qscramble import verify


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_verify_check_quick(check):
    check(True)
