"""Nystrom eigen-decomposition against closed-form and ODE-derived oracles.

The Brownian kernel min(x,y) on uniform [0,1] has exact eigenpairs
lambda_p = 1/(pi^2 (p+1/2)^2), phi_p(x) = sqrt(2) sin((p+1/2) pi x),
obtained by solving -phi'' = phi / lambda with phi(0) = 0, phi'(1) = 0.
Those exact values anchor the accuracy tests below.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from gpbudget.gp_core import Quadrature
from gpbudget.kernels import KernelSpec, cross_matrix, gram_matrix
from gpbudget.sim_harness import _KL_KERNEL, _KL_GRID, _KL_TERMS
from gpbudget.spectrum import (
    Spectrum,
    eigenfunction_matrix,
    nystrom_spectrum,
    save_spectrum_csv,
)

BROWNIAN = KernelSpec(family="brownian")
CONSTANT = KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"),))


def brownian_eigenvalue(p: int) -> float:
    return 1.0 / (math.pi ** 2 * (p + 0.5) ** 2)


def brownian_eigenfunction(p: int, x: float) -> float:
    return math.sqrt(2.0) * math.sin((p + 0.5) * math.pi * x)


class TestSpectrumValidation:
    def test_increasing_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Spectrum(eigenvalues=np.array([1.0, 2.0]))

    def test_negative_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Spectrum(eigenvalues=np.array([1.0, -0.5]))

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError, match="residual_trace"):
            Spectrum(eigenvalues=np.array([1.0]), residual_trace=-1e-3)

    def test_tiny_negative_residual_floored_to_zero(self):
        s = Spectrum(eigenvalues=np.array([1.0]), residual_trace=-1e-12)
        assert s.residual_trace == 0.0

    def test_table_shape_checked(self):
        with pytest.raises(ValueError, match="eigvec_table"):
            Spectrum(
                eigenvalues=np.array([1.0]),
                nodes=np.zeros((3, 1)),
                weights=np.full(3, 1 / 3),
                eigvec_table=np.zeros((2, 1)),
            )

    def test_table_requires_nodes_and_weights(self):
        with pytest.raises(ValueError, match="nodes and weights"):
            Spectrum(eigenvalues=np.array([1.0]), eigvec_table=np.zeros((3, 1)))

    def test_eigenvalue_only_spectrum_allowed(self):
        s = Spectrum(eigenvalues=np.array([2.0, 1.0]), residual_trace=0.5)
        assert s.n_terms == 2
        assert s.trace() == pytest.approx(3.5)

    def test_callers_arrays_stay_writeable_and_unshared(self):
        lam, nodes = np.array([2.0, 1.0]), np.array([[0.0], [0.5], [1.0]])
        w, tab = np.full(3, 1 / 3), np.arange(6.0).reshape(3, 2)
        s = Spectrum(eigenvalues=lam, nodes=nodes, weights=w, eigvec_table=tab)
        for arr in (lam, nodes, w, tab):
            assert arr.flags.writeable
            arr[0] = 99.0
        assert s.eigenvalues.tolist() == [2.0, 1.0]
        assert s.nodes.ravel().tolist() == [0.0, 0.5, 1.0]
        assert np.all(s.weights == 1 / 3)
        assert s.eigvec_table.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


class TestNystromBasics:
    def test_constant_kernel_is_rank_one_projector(self):
        q = Quadrature.trapezoid(200, 0.0, 1.0)
        s = nystrom_spectrum(CONSTANT, q, P=3)
        assert s.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(s.eigenvalues[1:] <= 1e-10)
        assert np.allclose(s.eigvec_table[:, 0], 1.0, atol=1e-8)
        assert eigenfunction_matrix(s, CONSTANT, [0.387], p_max=1)[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_trace_identity(self):
        q = Quadrature.trapezoid(300, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=20)
        node_trace = float(q.weights @ (q.nodes[:, 0]))
        assert s.eigenvalues.sum() + s.residual_trace == pytest.approx(node_trace, abs=1e-10)

    def test_sign_convention_largest_node_value_positive(self):
        q = Quadrature.trapezoid(400, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=12)
        for p in range(12):
            col = s.eigvec_table[:, p]
            assert col[np.argmax(np.abs(col))] > 0

    def test_orthonormal_under_quadrature_weights(self):
        q = Quadrature.trapezoid(500, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=30)
        G = s.eigvec_table.T @ (q.weights[:, None] * s.eigvec_table)
        assert np.max(np.abs(G - np.eye(30))) <= 1e-6

    def test_requires_ten_nodes_per_eigenvalue(self):
        q = Quadrature.trapezoid(50, 0.0, 1.0)
        with pytest.raises(ValueError, match="10"):
            nystrom_spectrum(BROWNIAN, q, P=6)

    def test_rejects_more_eigenvalues_than_nodes(self):
        q = Quadrature.trapezoid(20, 0.0, 1.0)
        with pytest.raises(ValueError):
            nystrom_spectrum(BROWNIAN, q, P=21)

    def test_rejects_nonpositive_p(self):
        q = Quadrature.trapezoid(20, 0.0, 1.0)
        with pytest.raises(ValueError):
            nystrom_spectrum(BROWNIAN, q, P=0)

    @pytest.mark.parametrize("bad", [10.5, True, "4", None])
    def test_p_must_be_a_whole_number(self, bad):
        q = Quadrature.trapezoid(200, 0.0, 1.0)
        with pytest.raises(ValueError, match="P: expected whole"):
            nystrom_spectrum(BROWNIAN, q, bad)

    def test_a_whole_float_p_reads_as_an_int(self):
        q = Quadrature.trapezoid(200, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, 20.0)
        assert s.n_terms == 20
        np.testing.assert_array_equal(s.eigenvalues, nystrom_spectrum(BROWNIAN, q, 20).eigenvalues)

    def test_rejects_zero_weight_nodes(self):
        w = np.full(40, 1.0 / 39)
        w[0] = 0.0
        q = Quadrature(np.linspace(0, 1, 40), w)
        with pytest.raises(ValueError, match="positive weight"):
            nystrom_spectrum(BROWNIAN, q, P=2)


class TestEigenvaluesOnly:
    """``table=False`` skips the eigenvectors; its eigenvalues and residual
    trace must be the ones the full decomposition gives."""

    @pytest.mark.parametrize("spec,q", [
        pytest.param(BROWNIAN, Quadrature.trapezoid(300, 0.0, 1.0), id="brownian"),
        pytest.param(KernelSpec(family="fbm", hurst=0.5), Quadrature.trapezoid(300, 0.0, 1.0),
                     id="fbm-h0.5"),
        pytest.param(KernelSpec(family="fbm", hurst=0.9), Quadrature.trapezoid(300, 0.0, 1.0),
                     id="fbm-h0.9"),
        # equal lengthscales: the products lambda_i lambda_j = lambda_j lambda_i make
        # exactly degenerate pairs (9 among the top 22)
        pytest.param(KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.3, 0.3)),
                     Quadrature.tensor_trapezoid(15, ((0.0, 1.0), (0.0, 1.0))),
                     id="matern_tensor-2d"),
    ])
    def test_matches_the_full_decomposition(self, spec, q):
        P = len(q) // 10
        full = nystrom_spectrum(spec, q, P)
        bare = nystrom_spectrum(spec, q, P, table=False)
        np.testing.assert_allclose(bare.eigenvalues, full.eigenvalues, rtol=1e-12, atol=0)
        # the residual is the trace minus the eigenvalue sum, so its round-off
        # scales with the trace, not with the (much smaller) residual itself
        assert bare.residual_trace == pytest.approx(full.residual_trace, abs=1e-12 * full.trace())
        assert bare.nodes is None and bare.weights is None and bare.eigvec_table is None


def _gram_spectrum(spec, q, P, table):
    """The spectrum written out from the Gram matrix: W^{1/2} K W^{1/2} built as
    one product, its eigh, and the trace from K's diagonal."""
    K = gram_matrix(spec, q.nodes)
    w = q.weights
    sw = np.sqrt(w)
    B = sw[:, None] * K * sw[None, :]
    if table:
        lam_all, U = eigh(B)
    else:
        lam_all = eigh(B, eigvals_only=True)
    order = np.argsort(lam_all)[::-1]
    lam = np.clip(lam_all[order[:P]], 0.0, None)
    residual = max(float(w @ np.diag(K)) - float(lam.sum()), 0.0)
    if not table:
        return lam, residual, None
    phi = U[:, order[:P]] / sw[:, None]
    for p in range(P):
        if phi[np.argmax(np.abs(phi[:, p])), p] < 0:
            phi[:, p] = -phi[:, p]
    return lam, residual, phi


def _grid(m):
    return Quadrature.tensor_trapezoid(m, ((0.0, 1.0), (0.0, 1.0)))


class TestOneBufferMatchesTheGramPath:
    """``nystrom_spectrum`` fills one buffer by ``cross_matrix`` row blocks and
    scales and factorizes it in place; every number equals the Gram-matrix
    formula's, bit for bit."""

    @pytest.mark.parametrize("spec, q, P, table", [
        pytest.param(KernelSpec(family="fbm", hurst=0.5), Quadrature.trapezoid(2000, 0.0, 1.0),
                     200, False, id="fbm-h0.5-m2000"),
        pytest.param(KernelSpec(family="fbm", hurst=0.9), Quadrature.trapezoid(2000, 0.0, 1.0),
                     200, False, id="fbm-h0.9-m2000"),
        *(pytest.param(KernelSpec(family="gaussian", lengthscales=(0.2,), variance=1.3),
                       Quadrature.trapezoid(700, 0.0, 1.0), 70, t, id=f"gaussian-1d-table{t}")
          for t in (False, True)),
        *(pytest.param(KernelSpec(family="matern1d", nu=2.7, lengthscales=(0.2,)),
                       Quadrature.trapezoid(700, 0.0, 1.0), 70, t, id=f"matern-2.7-table{t}")
          for t in (False, True)),
        pytest.param(_KL_KERNEL, _grid(_KL_GRID), _KL_TERMS, True, id="kl-grid-table"),
        *(pytest.param(KernelSpec(family="exponential", lengthscales=(0.3, 0.5), variance=0.7),
                       _grid(25), 60, t, id=f"exponential-25x25-table{t}")
          for t in (False, True)),
    ])
    def test_bitwise_equal(self, spec, q, P, table):
        lam, residual, phi = _gram_spectrum(spec, q, P, table)
        s = nystrom_spectrum(spec, q, P, table=table)
        assert np.array_equal(s.eigenvalues, lam)
        assert s.residual_trace == residual
        if table:
            assert np.array_equal(s.eigvec_table, phi)
        else:
            assert s.eigvec_table is None

    @pytest.mark.parametrize("spec", [
        KernelSpec(family="matern1d", nu=0.5, lengthscales=(0.2,), variance=1.3),
        KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.4, 0.3), variance=0.04),
        KernelSpec(family="matern_tensor", nu=2.5, lengthscales=(0.4, 0.3)),
        KernelSpec(family="matern_tensor", nu=2.7, lengthscales=(0.4, 0.3), variance=0.2),
        KernelSpec(family="gaussian", lengthscales=(0.3, 0.7), variance=0.9),
        KernelSpec(family="exponential", lengthscales=(0.3, 0.7), variance=1.1),
        KernelSpec(family="triangular", lengthscales=(0.4, 0.6), variance=0.8),
    ], ids=lambda s: f"{s.family}-{s.dim}d-nu{s.nu}")
    @pytest.mark.parametrize("layout", ["tensor-grid", "random"])
    def test_cross_matrix_on_itself_is_the_gram_matrix(self, spec, layout):
        if layout == "tensor-grid":
            X = _grid(23).nodes if spec.dim == 2 else Quadrature.trapezoid(300, 0.0, 1.0).nodes
        else:
            X = np.random.default_rng(12).uniform(size=(300, spec.dim))
        assert np.array_equal(cross_matrix(spec, X, X), gram_matrix(spec, X))


class TestMemory:
    """One call holds one m x m buffer, and the eigenvector matrix with a table:
    the traced peak stays near 1 x 8 m^2 bytes values-only and 2 x with a table."""

    @pytest.mark.parametrize("spec, q", [
        pytest.param(KernelSpec(family="fbm", hurst=0.9), Quadrature.trapezoid(2000, 0.0, 1.0),
                     id="fbm-m2000"),
        pytest.param(KernelSpec(family="matern1d", nu=2.7, lengthscales=(0.2,)),
                     Quadrature.trapezoid(1500, 0.0, 1.0), id="matern-2.7-m1500"),
        pytest.param(_KL_KERNEL, _grid(_KL_GRID), id="kl-grid"),
    ])
    @pytest.mark.parametrize("table, bound", [(False, 1.5), (True, 2.5)])
    def test_traced_peak(self, spec, q, table, bound):
        m = len(q)
        # build the kernel's cached tables (the Bessel panel of nu = 2.7) first
        cross_matrix(spec, q.nodes[:2], q.nodes[:2])
        tracemalloc.start()
        try:
            nystrom_spectrum(spec, q, m // 10, table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * m * m


class TestBrownianAccuracy:
    def test_eigenvalues_match_ode_solution(self):
        q = Quadrature.trapezoid(800, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=10)
        exact = np.array([brownian_eigenvalue(p) for p in range(10)])
        assert np.max(np.abs(s.eigenvalues - exact) / exact) < 0.01

    def test_eigenfunction_against_ode_solution(self):
        q = Quadrature.trapezoid(800, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=5)
        # p=0 at x=0.5: sqrt(2) sin(pi/4) = 1 exactly; for p=0 the pinned
        # sign agrees with the analytic one (the function is positive)
        assert eigenfunction_matrix(s, BROWNIAN, [0.5], p_max=1)[0, 0] == pytest.approx(1.0, abs=5e-3)
        # higher modes carry an arbitrary overall sign; align via the
        # quadrature inner product with the analytic eigenfunction
        t = q.nodes[:, 0]
        for p in range(3):
            exact_nodes = np.sqrt(2.0) * np.sin((p + 0.5) * np.pi * t)
            sign = np.sign(q.weights @ (s.eigvec_table[:, p] * exact_nodes))
            xs = (0.21, 0.63, 0.94)
            phi = eigenfunction_matrix(s, BROWNIAN, xs, p_max=p + 1)[:, p]
            for x, val in zip(xs, phi):
                assert sign * val == pytest.approx(brownian_eigenfunction(p, x), abs=2e-2)

    def test_extension_reproduces_table_at_nodes(self):
        q = Quadrature.trapezoid(300, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=8)
        # skip the x=0 node: its eigenfunction value is 0 and the kernel row
        # vanishes there, so compare on the interior
        vals = eigenfunction_matrix(s, BROWNIAN, q.nodes[1:], p_max=8)
        assert np.max(np.abs(vals - s.eigvec_table[1:, :8])) < 1e-8

    def test_doubling_nodes_moves_top_ten_by_under_half_percent(self):
        lam_a = nystrom_spectrum(BROWNIAN, Quadrature.trapezoid(500, 0, 1), P=10).eigenvalues
        lam_b = nystrom_spectrum(BROWNIAN, Quadrature.trapezoid(1000, 0, 1), P=10).eigenvalues
        assert np.max(np.abs(lam_a - lam_b) / lam_b) < 0.005


class TestMercerReconstruction:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(family="gaussian", lengthscales=(0.2,)),
            KernelSpec(family="matern1d", nu=2.5, lengthscales=(0.2,)),
        ],
        ids=["gaussian", "matern52"],
    )
    def test_truncated_series_close_to_kernel(self, spec):
        q = Quadrature.trapezoid(1000, 0.0, 1.0)
        s = nystrom_spectrum(spec, q, P=100)
        sup_phi2 = float(np.max(s.eigvec_table ** 2))
        bound = 10.0 * s.residual_trace * sup_phi2 + 1e-9
        rng = np.random.default_rng(42)
        xs = rng.uniform(0, 1, 12)
        ys = rng.uniform(0, 1, 12)
        phix = eigenfunction_matrix(s, spec, xs[:, None])
        phiy = eigenfunction_matrix(s, spec, ys[:, None])
        for i in range(12):
            series = float(np.sum(s.eigenvalues * phix[i] * phiy[i]))
            target = cross_matrix(spec, xs[i], ys[i])[0, 0]
            assert abs(series - target) <= bound


class TestExtensionGuards:
    def test_zero_eigenvalue_extension_rejected(self):
        nodes = np.linspace(0, 1, 3)[:, None]
        s = Spectrum(
            eigenvalues=np.array([1.0, 0.0]),
            nodes=nodes,
            weights=np.full(3, 1 / 3),
            eigvec_table=np.ones((3, 2)),
        )
        with pytest.raises(ValueError, match="zero"):
            eigenfunction_matrix(s, CONSTANT, [0.5], p_max=2)

    def test_out_of_range_index_rejected(self):
        q = Quadrature.trapezoid(100, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=4)
        with pytest.raises(ValueError, match="out of range"):
            eigenfunction_matrix(s, BROWNIAN, [0.5], p_max=5)

    def test_tableless_spectrum_cannot_extend(self):
        s = Spectrum(eigenvalues=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="node table"):
            eigenfunction_matrix(s, BROWNIAN, [0.5], p_max=1)

    @pytest.mark.parametrize("bad", [2.7, True, "2"])
    def test_p_max_must_be_a_whole_number(self, bad):
        s = nystrom_spectrum(BROWNIAN, Quadrature.trapezoid(100, 0.0, 1.0), P=4)
        with pytest.raises(ValueError, match="p_max: expected whole"):
            eigenfunction_matrix(s, BROWNIAN, [0.5], p_max=bad)

    def test_a_whole_float_p_max_reads_as_an_int(self):
        s = nystrom_spectrum(BROWNIAN, Quadrature.trapezoid(100, 0.0, 1.0), P=4)
        xs = [0.2, 0.7]
        got = eigenfunction_matrix(s, BROWNIAN, xs, p_max=3.0)
        np.testing.assert_array_equal(got, eigenfunction_matrix(s, BROWNIAN, xs, p_max=3))

    def test_p_max_out_of_bounds(self):
        q = Quadrature.trapezoid(100, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=4)
        with pytest.raises(ValueError, match="p_max"):
            eigenfunction_matrix(s, BROWNIAN, [[0.5]], p_max=9)


class TestTensorQuadratureSpectrum:
    def test_two_dimensional_kernel_spectrum(self):
        spec = KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.4, 0.4))
        q = Quadrature.tensor_trapezoid(21, ((0.0, 1.0), (0.0, 1.0)))
        s = nystrom_spectrum(spec, q, P=12)
        assert np.all(np.diff(s.eigenvalues) <= 1e-12)
        assert s.eigenvalues[0] > 0
        G = s.eigvec_table.T @ (q.weights[:, None] * s.eigvec_table)
        assert np.max(np.abs(G - np.eye(12))) <= 1e-6
        # product structure: lambda_(0,1) = lambda_(1,0) by symmetric lengthscales
        assert s.eigenvalues[1] == pytest.approx(s.eigenvalues[2], rel=1e-6)


class TestCsvExport:
    def test_round_trip_eigenvalues_and_table(self, tmp_path):
        q = Quadrature.trapezoid(120, 0.0, 1.0)
        s = nystrom_spectrum(BROWNIAN, q, P=6)
        spath = tmp_path / "spectrum.csv"
        npath = tmp_path / "nodes.csv"
        save_spectrum_csv(s, spath, nodes_path=npath)

        with open(spath, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "lambda"]
        lam = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_array_equal(lam, s.eigenvalues)

        with open(npath, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["x_1", "weight"]
        assert rows[0][2:] == [f"phi_{p}" for p in range(6)]
        assert len(rows) == 121
        first = np.array([float(v) for v in rows[1][2:]])
        np.testing.assert_array_equal(first, s.eigvec_table[0])

    def test_eigenvalue_only_export_skips_table(self, tmp_path):
        s = Spectrum(eigenvalues=np.array([3.0, 1.0]))
        save_spectrum_csv(s, tmp_path / "s.csv")
        with pytest.raises(ValueError, match="node table"):
            save_spectrum_csv(s, tmp_path / "s.csv", nodes_path=tmp_path / "n.csv")
