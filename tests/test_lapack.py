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


@pytest.mark.parametrize("m", [2, 3])
def test_right_division_and_one_norm_condition(m):
    a = nonsymmetric_stack(3, 5)
    b = np.random.default_rng(2).random((3, m, 5))
    x = b.copy()
    rcond = solve_right(a, x, np.abs(a).sum(axis=-2).max(axis=-1), np.empty(25))
    assert np.allclose(x, b @ np.linalg.inv(a), rtol=0, atol=1e-13)
    # a lower bound on ||a||_1 ||a^{-1}||_1, within the estimator's usual
    # factor of 3; ||a^{-1}||_inf in its place would exceed it
    inverse = np.linalg.inv(a)
    exact = np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inverse, 1, axis=(-2, -1))
    assert np.all(1 / rcond <= exact * (1 + 5 * EPS)) and np.all(3 / rcond >= exact)
    assert np.all(np.linalg.norm(inverse, np.inf, axis=(-2, -1))
                  > 1.5 * np.linalg.norm(inverse, 1, axis=(-2, -1)))


def test_exactly_singular_matrix():
    a = nonsymmetric_stack(2, 3)
    a[1, 2] = a[1, 0]
    b = np.ones((2, 2, 3))
    rcond = solve_right(a, b, np.abs(a).sum(axis=-2).max(axis=-1), np.empty(9))
    assert rcond[0] > 0 and rcond[1] == 0
    assert np.array_equal(b[1], np.ones((2, 3)))


@pytest.mark.parametrize("b", [np.ones((1, 1, 3)),                  # one right-hand side
                               np.ones((1, 3, 2)).swapaxes(-1, -2),  # not C-ordered
                               np.ones((1, 2, 4))])                 # not a's order
def test_rejects_unusable_stacks(b):
    with pytest.raises(ValueError):
        solve_right(np.eye(3)[None], b, [1.0], np.empty(9))
