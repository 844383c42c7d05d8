"""Validation helpers."""

import pytest

from repro.utils.validation import check_in_range, check_positive, check_probability


def test_check_positive():
    assert check_positive("v", 1.5) == 1.5
    with pytest.raises(ValueError, match="v must be > 0"):
        check_positive("v", 0)
    assert check_positive("v", 0, strict=False) == 0
    with pytest.raises(ValueError):
        check_positive("v", -1, strict=False)


def test_check_probability():
    assert check_probability("p", 0.0) == 0.0
    assert check_probability("p", 1.0) == 1.0
    with pytest.raises(ValueError):
        check_probability("p", 1.01)


def test_check_in_range():
    assert check_in_range("x", 5, 0, 10) == 5
    with pytest.raises(ValueError):
        check_in_range("x", 11, 0, 10)

