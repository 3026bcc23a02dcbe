import numpy as np
import pytest
import scipy.linalg

import oscbath as ob
from oscbath.linalg import eigendecompose

from conftest import linear_bath, random_hermitian

TWO_BY_TWO = {
    "real off-diagonal": [[0.3, 0.2], [0.2, 1.7]],
    "complex off-diagonal": [[1.0, 0.1 + 0.05j], [0.1 - 0.05j, 1.4]],
    "zero off-diagonal": [[2.0, 0.0], [0.0, -1.0]],
    "equal diagonal": [[1.0, 0.1], [0.1, 1.0]],
    "diagonal gap < 0": [[1.5, 0.3j], [-0.3j, 0.5]],
}


class TestEigendecompose:
    def test_already_diagonal(self):
        sd = eigendecompose(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(sd.eigenvalues, [1.0, 2.0], atol=0)
        assert np.array_equal(sd.vectors, np.eye(2))

    def test_symmetric_2x2(self):
        g = 0.1
        sd = eigendecompose(np.array([[0.0, g], [g, 0.0]], dtype=complex))
        assert np.allclose(sd.eigenvalues, [-g, g], atol=1e-15)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(np.abs(sd.vectors), inv_sqrt2, atol=1e-15)
        # phase convention: largest component real positive
        assert sd.vectors.real.max(axis=0) == pytest.approx(inv_sqrt2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_residual_oracle(self, seed):
        h = random_hermitian(5, seed)
        sd = eigendecompose(h)
        # residual computed directly from the output
        residual = np.abs(h @ sd.vectors - sd.vectors * sd.eigenvalues).max()
        assert residual <= 1e-12

    @pytest.mark.parametrize("dim", [1, 3, 8, 20])
    def test_invariants(self, dim):
        h = random_hermitian(dim, 100 + dim)
        sd = eigendecompose(h)
        gram = sd.vectors.conj().T @ sd.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-12
        rel = np.linalg.norm(sd.reconstruct() - h) / np.linalg.norm(h)
        assert rel <= 1e-12
        assert np.all(np.diff(sd.eigenvalues) >= 0)

    @pytest.mark.parametrize("dim", [3, 8, 52, 202])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_phase_convention_matches_column_loop(self, dim, real):
        # the per-column loop the vectorized convention replaced, on
        # numpy's eigenvectors: bit for bit the same vectors
        h = random_hermitian(dim, dim)
        if real:
            h = h.real.astype(complex)
            vectors = np.linalg.eigh(h.real)[1].astype(complex)
        else:
            vectors = np.linalg.eigh(h)[1]
        for k in range(dim):
            col = vectors[:, k]
            i = int(np.argmax(np.abs(col)))
            ph = col[i] / abs(col[i])
            vectors[:, k] = col * ph.conjugate()
        assert eigendecompose(h).vectors.tobytes() == vectors.tobytes()

    def test_deterministic(self):
        h = random_hermitian(6, 7)
        sd1 = eigendecompose(h)
        sd2 = eigendecompose(h.copy())
        assert sd1.eigenvalues.tobytes() == sd2.eigenvalues.tobytes()
        assert sd1.vectors.tobytes() == sd2.vectors.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (2,), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=f"square matrix of dim >= 1, got shape "
                                             rf"\({shape[0]},"):
            eigendecompose(np.zeros(shape, dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            eigendecompose(np.array([[np.nan]], dtype=complex))

    @pytest.mark.parametrize("name", list(TWO_BY_TWO))
    def test_two_by_two_closed_form(self, name):
        h = np.array(TWO_BY_TWO[name], dtype=complex)
        sd = eigendecompose(h)
        residual = np.abs(h @ sd.vectors - sd.vectors * sd.eigenvalues).max()
        assert residual <= 1e-12
        gram = sd.vectors.conj().T @ sd.vectors
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        assert sd.eigenvalues[0] <= sd.eigenvalues[1]
        for k in range(2):
            big = sd.vectors[np.argmax(np.abs(sd.vectors[:, k])), k]
            assert abs(big.imag) <= 1e-15 and big.real > 0.0
        # both are backward stable, so each lies a few eps * ||h|| from the
        # exact eigenvalues, but they need not agree to 2 ulp: on the complex
        # case the rotation is 3.5 ulp from exact and LAPACK 0.5 ulp
        ref = scipy.linalg.eigh(h, eigvals_only=True)
        scale = np.finfo(float).eps * np.abs(ref).max()
        assert np.abs(sd.eigenvalues - ref).max() <= 8 * scale

    @pytest.mark.parametrize("gap", [0.0, 0.5], ids=["degenerate", "detuned"])
    @pytest.mark.parametrize("g", [1e-320, 3e-321 + 1e-320j, 1e-200, 1e-200j],
                             ids=["subnormal", "complex subnormal", "tiny", "tiny imaginary"])
    def test_two_by_two_tiny_coupling(self, gap, g):
        # 1 / |g| overflows for a subnormal g, and so does (gap / 2|g|)^2 for
        # any tiny g off resonance; neither may reach the output as nan or a warning
        h = np.array([[1.0, np.conj(g)], [g, 1.0 + gap]], dtype=complex)
        sd = eigendecompose(h)
        assert np.all(np.isfinite(sd.vectors)) and np.all(np.isfinite(sd.eigenvalues))
        assert np.abs(sd.vectors.conj().T @ sd.vectors - np.eye(2)).max() <= 1e-15
        assert np.abs(h @ sd.vectors - sd.vectors * sd.eigenvalues).max() <= 1e-15
        # mixing is complete between degenerate levels, however small g is,
        # and below rounding between detuned ones
        mixing = np.abs(sd.vectors[1, 0])
        assert mixing == pytest.approx(np.sqrt(0.5)) if gap == 0.0 else mixing <= 1e-16

    def test_complex_couplings_match_real_twin(self):
        real = linear_bath(51, 0.5, 1.5, 1.0, 0.01)
        phases = np.exp(2j * np.pi * np.random.default_rng(4).random(51))
        twin = ob.ModelSpec(omega=real.omega, bath_frequencies=real.bath_frequencies,
                            couplings=real.couplings * phases)
        sd_real = eigendecompose(ob.build_hamiltonian(real))
        sd_complex = eigendecompose(ob.build_hamiltonian(twin))
        assert np.abs(sd_real.eigenvalues - sd_complex.eigenvalues).max() <= 1e-12
        assert np.abs(np.abs(sd_real.vectors) - np.abs(sd_complex.vectors)).max() <= 1e-12
