"""Refusals of the library's entry points on empty or foreign input.

Each case is one entry point, the input it refuses, and the exception type
and message it raises.
"""

import pytest

from cuspidal import (
    NewtonPairs,
    SemigroupError,
    catalog,
    min_convolve_all,
    regroupings,
    resolve_semigroup,
)

CASES = {
    "empty multiset": (lambda: regroupings([]), ValueError, "empty multiplicity multiset"),
    "family C without u": (lambda: catalog("C", d=5), ValueError, "family C needs d and u"),
    "no Newton pairs": (lambda: NewtonPairs([]), SemigroupError, "empty Newton pair list"),
    "not a cusp": (lambda: resolve_semigroup((2, 3)), TypeError, "not a cusp type: (2, 3)"),
    "no counting function": (lambda: min_convolve_all([]), ValueError,
                             "need at least one counting function"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
