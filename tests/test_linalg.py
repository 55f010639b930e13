import numpy as np
import pytest

from isac_mi import SingularMatrixError
from isac_mi._linalg import COND_LIMIT, inv_herm


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


@pytest.mark.parametrize(
    "a, cond",
    [
        (np.diag([1.0, 0.5, 0.0]), np.inf),
        (np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), None),  # rank one
        (np.diag([1.0, -0.3, 2e-15]), 5e14),
    ],
    ids=["zero-eigenvalue", "rank-one", "cond-5e14"],
)
def test_singular_or_ill_conditioned_matrix_raises_by_name(a, cond):
    with pytest.raises(SingularMatrixError, match="in test equation") as info:
        inv_herm(a.astype(complex), "test equation")
    err = info.value
    assert err.context == "test equation"
    assert err.cond > COND_LIMIT
    assert f"condition number {err.cond:.3e}" in str(err)
    if cond is not None:
        assert err.cond == pytest.approx(cond, rel=1e-12)


def test_condition_just_under_the_limit_inverts():
    # the eigenvalues of a diagonal matrix are exact, so cond = 0.99e14 exactly
    a = np.diag([1.0, -0.5, 1.0 / 0.99e14]).astype(complex)
    x = inv_herm(a, "test equation")
    assert np.allclose(np.diag(x).real, [1.0, -2.0, 0.99e14], rtol=1e-15)


def test_well_conditioned_indefinite_matrix_inverts():
    # the guard takes |eigenvalues|, so a sign change is no singularity
    rng = np.random.default_rng(3)
    q = _unitary(12, rng)
    a = (q * np.linspace(-3.0, 2.0, 12)) @ q.conj().T
    a = a + np.eye(12) * 0.05  # no eigenvalue at 0
    assert np.linalg.eigvalsh(a).min() < 0.0 < np.linalg.eigvalsh(a).max()
    x = inv_herm(a, "test equation")
    assert np.linalg.norm(a @ x - np.eye(12)) <= 1e-12



def test_hermitian_part_and_guard_act_on_each_matrix_of_a_stack():
    from isac_mi._linalg import herm, min_eigval

    rng = np.random.default_rng(5)
    for n in (2, 3):
        a = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        expected = np.stack([0.5 * (block + block.conj().T) for block in a])
        np.testing.assert_array_equal(herm(a), expected)
        np.testing.assert_array_equal(herm(expected), expected)  # Hermitian blocks are fixed
        assert min_eigval(expected) == min(np.linalg.eigvalsh(b).min() for b in expected)
    # each block has condition number 1; only across blocks is the ratio 1e15
    stack = np.stack([np.eye(2), 1e-15 * np.eye(2)]).astype(complex)
    np.testing.assert_allclose(inv_herm(stack, "test equation"), np.stack([np.eye(2), 1e15 * np.eye(2)]))
    with pytest.raises(SingularMatrixError) as info:
        inv_herm(np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex), "test equation")
    assert info.value.cond == np.inf
