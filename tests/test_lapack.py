import numpy as np
import pytest

from oscbath.lapack import solve_right

EPS = np.finfo(float).eps


def nonsymmetric_stack(count, n, seed=1):
    """Matrices whose inverses have a large first row, so that their
    inf-norm is well above their 1-norm."""
    a = np.random.default_rng(seed).random((count, n, n))
    a[:, :, 0] /= 30.0
    return a


@pytest.mark.parametrize("m", [1, 2, 3])
def test_right_division_and_one_norm_condition(m):
    a = nonsymmetric_stack(3, 5)
    b = np.random.default_rng(2).random((3, m, 5))
    x, condition = solve_right(a, b, np.empty(25))
    assert np.allclose(x, b @ np.linalg.inv(a), rtol=0, atol=1e-13)
    # a lower bound on ||a||_1 ||a^{-1}||_1, within the estimator's usual
    # factor of 3; ||a^{-1}||_inf in its place would exceed it
    inverse = np.linalg.inv(a)
    exact = np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inverse, 1, axis=(-2, -1))
    assert np.all(condition <= exact * (1 + 5 * EPS)) and np.all(3 * condition >= exact)
    assert np.all(np.linalg.norm(inverse, np.inf, axis=(-2, -1))
                  > 1.5 * np.linalg.norm(inverse, 1, axis=(-2, -1)))


def test_one_row_has_the_bytes_of_several():
    # OpenBLAS rounds one right-hand side differently from several, so the
    # single row is solved next to a zero row
    a = nonsymmetric_stack(4, 7)
    b = np.random.default_rng(3).random((4, 2, 7))
    x1, condition1 = solve_right(a, b[:, :1], np.empty(49))
    x2, condition2 = solve_right(a, b, np.empty(49))
    assert np.array_equal(x1, x2[:, :1]) and np.array_equal(condition1, condition2)


def test_rows_of_any_layout_are_read_not_written():
    a = nonsymmetric_stack(2, 4)
    b = np.random.default_rng(4).random((2, 4, 3)).swapaxes(-1, -2)  # not C-ordered
    given = b.copy()
    x, _ = solve_right(a, b, np.empty(16))
    assert np.array_equal(b, given)
    assert np.array_equal(x, solve_right(a, given, np.empty(16))[0])


def test_exactly_singular_matrix():
    a = nonsymmetric_stack(2, 3)
    a[1, 2] = a[1, 0]
    b = np.ones((2, 2, 3))
    x, condition = solve_right(a, b, np.empty(9))
    assert np.isfinite(condition[0]) and condition[1] == np.inf
    assert np.array_equal(x[1], np.ones((2, 3)))


def test_nan_entry_gives_nan_condition(capfd):
    a = nonsymmetric_stack(2, 3)
    a[1, 2, 1] = np.nan
    b = np.random.default_rng(5).random((2, 1, 3))
    x, condition = solve_right(a, b, np.empty(9))
    clean, clean_condition = solve_right(a[:1], b[:1], np.empty(9))
    assert np.isnan(condition[1]) and condition[0] == clean_condition[0]
    assert np.array_equal(x[0], clean[0])
    # no LAPACK argument-error message on either stream
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("a, b", [
    (np.eye(3)[None], np.ones((1, 2, 4))),
    (np.eye(3)[None], np.ones((2, 2, 3))),
    (np.eye(3)[None].swapaxes(-1, -2)[:, ::-1], np.ones((1, 2, 3))),
    (np.eye(3, dtype=np.float32)[None], np.ones((1, 2, 3))),
], ids=["b-not-in-a-order", "b-not-of-a-count", "a-not-c-ordered", "a-not-float64"])
def test_rejects_unusable_stacks(a, b):
    with pytest.raises(ValueError):
        solve_right(a, b, np.empty(9))
