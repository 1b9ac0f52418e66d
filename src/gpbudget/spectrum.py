"""Mercer eigen-decomposition of (kernel, measure) pairs.

The numerical route is the Nystrom method: with quadrature nodes t_j and
weights w_j approximating the measure mu, the integral operator is
discretized as the symmetric matrix W^{1/2} K W^{1/2}.  Its eigenvalues
approximate the Mercer eigenvalues and the rescaled eigenvectors
u_{jp} / sqrt(w_j) give eigenfunction values at the nodes, extendable to
arbitrary points through

    phi_p(x) = (1/lambda_p) sum_j w_j k(x, t_j) phi_p(t_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .gp_core import Quadrature, _write_csv
from .kernels import KernelSpec, cross_matrix, _as_points, _config_number, _keep

# the kernel entries one row block of the Nystrom matrix evaluates, so that no
# kernel temporary is m x m
_FILL_ENTRIES = 2**16


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing eigenvalues, optionally with the node data needed to
    evaluate eigenfunctions (absent for eigenvalue-only spectra)."""

    eigenvalues: np.ndarray
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None
    eigvec_table: np.ndarray | None = None
    residual_trace: float = 0.0

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float).ravel()
        if len(lam) == 0:
            raise ValueError("spectrum needs at least one eigenvalue")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be nonnegative (clip round-off first)")
        if np.any(np.diff(lam) > 1e-12 * max(lam[0], 1.0)):
            raise ValueError("eigenvalues must be nonincreasing")
        if self.residual_trace < -1e-8:
            raise ValueError("residual_trace must be nonnegative up to round-off")
        _keep(self, eigenvalues=lam, residual_trace=float(max(self.residual_trace, 0.0)))
        if self.eigvec_table is not None:
            if self.nodes is None or self.weights is None:
                raise ValueError("a node table requires nodes and weights")
            nodes = np.atleast_2d(np.array(self.nodes, dtype=float))
            w = np.array(self.weights, dtype=float).ravel()
            tab = np.array(self.eigvec_table, dtype=float)
            if tab.shape != (len(w), len(lam)) or len(nodes) != len(w):
                raise ValueError("eigvec_table must be (n_nodes, n_eigenvalues)")
            _keep(self, nodes=nodes, weights=w, eigvec_table=tab)

    @property
    def n_terms(self) -> int:
        return len(self.eigenvalues)

    def trace(self) -> float:
        return float(self.eigenvalues.sum() + self.residual_trace)


def nystrom_spectrum(spec: KernelSpec, measure: Quadrature, P: int, table: bool = True) -> Spectrum:
    """Top-P eigenpairs of the kernel integral operator under ``measure``.

    Requires a whole ``P`` and at least 10 nodes per requested eigenvalue;
    negative round-off eigenvalues are clipped to zero, with the clipped
    mass folded into ``residual_trace``.  With ``table=False`` only the
    eigenvalues are computed (no eigenvector back-transformation, about
    half the cost of the full ``eigh``) and the spectrum carries no
    nodes, weights or eigenfunction table: enough for the dense-design
    IMSE limit, not for evaluating eigenfunctions.

    The m x m matrix is one buffer: filled by row blocks of about
    ``_FILL_ENTRIES`` kernel entries, scaled in place and factorized in
    place, so one call holds about 8 m^2 bytes with ``table=False`` and
    twice that with the eigenvector table.
    """
    P = _config_number(P, "P", int)
    m = len(measure)
    if P < 1:
        raise ValueError("P must be >= 1")
    if P > m:
        raise ValueError(f"cannot extract {P} eigenvalues from {m} nodes")
    if 10 * P > m:
        raise ValueError(f"need at least 10 nodes per eigenvalue: 10*{P} > {m}")
    w = measure.weights
    if np.any(w <= 0):
        raise ValueError("Nystrom nodes must all carry positive weight")
    nodes = measure.nodes
    K = np.empty((m, m))
    step = max(1, _FILL_ENTRIES // m)
    for i in range(0, m, step):
        K[i:i + step] = cross_matrix(spec, nodes[i:i + step], nodes)
    # from the strided diagonal: OpenBLAS sums a contiguous vector, such as
    # kernel_diag's, in another order
    trace = float(w @ np.diag(K))
    sw = np.sqrt(w)
    K *= sw[None, :]
    K *= sw[:, None]
    # every kernel matrix here is exactly symmetric, so K.T now holds
    # (sw_i k_ij) sw_j, each entry of W^{1/2} K W^{1/2} rounded as the product
    # sw[:, None] * K * sw[None, :] rounds it; LAPACK takes it F-ordered, uncopied
    if table:
        lam_all, U = eigh(K.T, overwrite_a=True)
    else:
        lam_all = eigh(K.T, overwrite_a=True, eigvals_only=True)
    order = np.argsort(lam_all)[::-1]
    lam = np.clip(lam_all[order[:P]], 0.0, None)
    residual = trace - float(lam.sum())
    if not table:
        return Spectrum(eigenvalues=lam, residual_trace=residual)
    phi = U[:, order[:P]] / sw[:, None]
    # pin the arbitrary sign: largest-magnitude node value positive
    for p in range(P):
        j = int(np.argmax(np.abs(phi[:, p])))
        if phi[j, p] < 0:
            phi[:, p] = -phi[:, p]
    return Spectrum(
        eigenvalues=lam,
        nodes=measure.nodes,
        weights=w,
        eigvec_table=phi,
        residual_trace=residual,
    )


def _require_table(s: Spectrum) -> None:
    if s.eigvec_table is None:
        raise ValueError("this spectrum carries no node table; rebuild via nystrom_spectrum")


def eigenfunction_matrix(s: Spectrum, spec: KernelSpec, x, p_max: int | None = None) -> np.ndarray:
    """Nystrom extension of the first p_max eigenfunctions, shape (n_x, p_max);
    ``p_max`` is a whole number, all terms when None.

    Only eigenfunctions with strictly positive eigenvalue can be extended.
    """
    _require_table(s)
    P = s.n_terms if p_max is None else _config_number(p_max, "p_max", int)
    if P < 1 or P > s.n_terms:
        raise ValueError(f"p_max {P} out of range: must be in 1..{s.n_terms}")
    lam = s.eigenvalues[:P]
    if np.any(lam <= 0):
        raise ValueError("cannot extend an eigenfunction with zero eigenvalue")
    X = _as_points(x, s.nodes.shape[1])
    Kx = cross_matrix(spec, X, s.nodes)
    return (Kx @ (s.weights[:, None] * s.eigvec_table[:, :P])) / lam[None, :]


def save_spectrum_csv(s: Spectrum, path, nodes_path=None) -> None:
    """Write eigenvalues (columns p, lambda); optionally the node table."""
    _write_csv(path, ["p", "lambda"], enumerate(s.eigenvalues.tolist()))
    if nodes_path is not None:
        _require_table(s)
        header = [f"x_{j + 1}" for j in range(s.nodes.shape[1])] + ["weight"]
        header += [f"phi_{p}" for p in range(s.n_terms)]
        rows = zip(s.nodes.tolist(), s.weights.tolist(), s.eigvec_table)
        _write_csv(nodes_path, header, (x + [w] + phi.tolist() for x, w, phi in rows))
