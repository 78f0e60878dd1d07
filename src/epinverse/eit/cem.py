"""2D complete electrode model: piecewise-linear FEM forward solver, adjoint
Jacobian, and synthetic data generation.

The variational system couples node potentials u with electrode voltages V
through the contact-impedance boundary terms; the zero-sum voltage constraint
is enforced by an explicit (L-1)-dimensional basis so the assembled system
stays SPD and one Cholesky factorization serves all current patterns and all
adjoint solves.  Conductivity lives in the same nodal P1 space as the
potential and is interpolated at element centroids (1-point rule) for the
stiffness entries.

Everything that does not depend on the conductivity (element geometry, the
scatter positions in the reduced system, the reduced electrode terms, the
node-element incidence) is built once per mesh (``MeshOperator``); a solve
scatters the conductivity-weighted terms into the reduced system, factors it
and reads the voltages off the trailing block of the factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from ..errors import ElectrodeCountMismatch, SingularSystem
from ..nonlinear import ForwardModel
from .mesh import Mesh

# defaults from the flagship tank setup (16 electrodes on a 28 cm disk)
TANK_RADIUS = 0.14  # m
N_ELECTRODES = 16
ELECTRODE_WIDTH = 0.025  # m of arc
ELECTRODE_COVERAGE = ELECTRODE_WIDTH / (2.0 * np.pi * TANK_RADIUS)
CURRENT_AMPLITUDE = 1e-3  # A
SIGMA_BG = 1.41e-3  # 2D-reduced background conductivity [1/Ohm]
SIGMA_FLOOR = 1e-5  # positivity floor, well below background
ALPHA_DEFAULT = 6.9e4  # noise inverse variance
LAMBDA_DEFAULT = 3.0e4  # sparsity scale
CONTACT_IMPEDANCES = 1e-4 * np.array(
    [2.64, 3.00, 2.76, 4.27, 3.50, 4.30, 3.91, 2.35, 2.01, 2.21, 2.04, 1.43, 2.98, 2.78, 2.92, 3.40]
)


def adjacent_patterns(L: int) -> list[tuple[int, int]]:
    """The L-1 linearly independent adjacent-pair injections."""
    return [(l, l + 1) for l in range(L - 1)]


@dataclass
class CEMConfig:
    """Electrode layer of the CEM: contact impedances, injection patterns and
    amplitude.  Grounding is the zero-sum convention sum_l V_l = 0, enforced
    structurally by the solver's reduced basis."""

    z: np.ndarray  # contact impedances [Ohm*m, 2D-reduced], one per electrode
    patterns: list[tuple[int, int]]
    amplitude: float = CURRENT_AMPLITUDE

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        if self.z.ndim != 1:
            raise ValueError(f"contact impedances must be 1-D, one per electrode; got shape {self.z.shape}")
        if np.any(self.z <= 0.0):
            raise ValueError("contact impedances must be positive")
        for a, b in self.patterns:
            if not (0 <= a < self.L and 0 <= b < self.L):
                raise ValueError(f"pattern ({a}, {b}) names an electrode outside 0..{self.L - 1}")
            if a == b:
                raise ValueError("pattern injects and grounds the same electrode")

    @property
    def L(self) -> int:
        return self.z.shape[0]

    @property
    def n_patterns(self) -> int:
        return len(self.patterns)

    def current_matrix(self) -> np.ndarray:
        """(L, P) injected currents; each column sums to zero."""
        pairs = np.asarray(self.patterns, dtype=np.int64).reshape(-1, 2)
        cols = np.arange(self.n_patterns)
        I = np.zeros((self.L, self.n_patterns))
        I[pairs[:, 0], cols] = self.amplitude
        I[pairs[:, 1], cols] = -self.amplitude
        return I

    def kept_mask(self) -> np.ndarray:
        """(P, L) mask of the electrodes whose voltages enter the measurement:
        all but each pattern's two current-carrying electrodes."""
        pairs = np.asarray(self.patterns, dtype=np.int64).reshape(-1, 2)
        keep = np.ones((self.n_patterns, self.L), dtype=bool)
        rows = np.arange(self.n_patterns)
        keep[rows, pairs[:, 0]] = False
        keep[rows, pairs[:, 1]] = False
        return keep

    @property
    def n_measurements(self) -> int:
        return self.n_patterns * (self.L - 2)


def default_config(L: int = N_ELECTRODES) -> CEMConfig:
    if L == N_ELECTRODES:
        z = CONTACT_IMPEDANCES.copy()
    else:
        z = np.full(L, float(np.mean(CONTACT_IMPEDANCES)))
    return CEMConfig(z=z, patterns=adjacent_patterns(L))


def _zero_sum_basis(L: int) -> np.ndarray:
    """(L, L-1) basis Q of the voltages with sum_l V_l = 0: V = Q v."""
    return np.vstack([np.eye(L - 1), -np.ones((1, L - 1))])


# Contact-impedance term of one electrode edge (a, b) of length d: (d/z_l)
# _EDGE_TERM on (u_a, u_b, V_l) is the quadratic form of the edge integral of
# (V_l - u)^2 / z_l with u linear along the edge.
_EDGE_TERM = np.array([[1.0 / 3.0, 1.0 / 6.0, -0.5], [1.0 / 6.0, 1.0 / 3.0, -0.5], [-0.5, -0.5, 1.0]])


@dataclass(frozen=True)
class MeshOperator:
    """The conductivity-independent CEM data of one mesh, built once
    (``Mesh.cem_operator``).

    The reduced system has the N node potentials and the L-1 zero-sum
    electrode coordinates as unknowns.  Each of its terms is a coefficient
    times a fixed weight at a fixed position: the coefficient of element t's
    stiffness is the sum of its three nodal conductivities (the centroid
    value times 3), that of an electrode edge term is 1/z_l.  Assembly is
    then one scatter, ``bincount(index, coef[owner] * weight)``.
    """

    n_nodes: int
    n_electrodes: int
    triangles: np.ndarray  # (T, 3)
    areas: np.ndarray  # (T,) signed
    b: np.ndarray  # (T, 3) gradient coefficients, grad phi_i = (b_i, c_i)/(2A)
    c: np.ndarray  # (T, 3)
    index: np.ndarray  # flat position of each term in the (M, M) reduced system
    owner: np.ndarray  # its coefficient: element t, or T + l for electrode l
    weight: np.ndarray  # its value at unit coefficient
    incidence: sparse.csr_matrix  # (interior nodes, T): 1 where the node is a vertex

    @property
    def size(self) -> int:
        """M = N + L - 1, the order of the reduced system."""
        return self.n_nodes + self.n_electrodes - 1

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "MeshOperator":
        N, L, T = mesh.n_nodes, mesh.n_electrodes, mesh.n_triangles
        M = N + L - 1
        tri = mesh.triangles
        p = mesh.nodes[tri]  # (T, 3, 2)
        x, y = p[..., 0], p[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        areas = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        # element stiffness (b_i b_j + c_i c_j)/(4A) at the centroid value sum/3
        unit = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (12.0 * areas[:, None, None])
        k_index = tri[:, :, None] * M + tri[:, None, :]

        # electrode edges, each mapped to its reduced unknowns (u_a, u_b, v)
        # by V_l = Q[l] . v, so that its term is P^T _EDGE_TERM P
        per_electrode = [np.asarray(e, dtype=np.int64).reshape(-1, 2) for e in mesh.electrode_edges]
        ab = np.concatenate(per_electrode)
        elec = np.repeat(np.arange(L), [len(e) for e in per_electrode])
        d = np.linalg.norm(mesh.nodes[ab[:, 1]] - mesh.nodes[ab[:, 0]], axis=1)
        P = np.zeros((len(elec), 3, L + 1))
        P[:, 0, 0] = 1.0
        P[:, 1, 1] = 1.0
        P[:, 2, 2:] = _zero_sum_basis(L)[elec]
        e_term = d[:, None, None] * np.einsum("eia,ij,ejb->eab", P, _EDGE_TERM, P)
        dofs = np.hstack([ab, np.broadcast_to(N + np.arange(L - 1), (len(elec), L - 1))])
        e_index = dofs[:, :, None] * M + dofs[:, None, :]
        e_owner = np.broadcast_to((T + elec)[:, None, None], e_term.shape)
        nonzero = e_term != 0.0

        interior = np.asarray(mesh.interior_node_ids)
        incidence = sparse.csr_matrix(
            (np.ones(3 * T), (tri.reshape(-1), np.repeat(np.arange(T), 3))), shape=(N, T)
        )[interior]
        return cls(
            n_nodes=N,
            n_electrodes=L,
            triangles=tri,
            areas=areas,
            b=b,
            c=c,
            index=np.concatenate([k_index.reshape(-1), e_index[nonzero]]),
            owner=np.concatenate([np.repeat(np.arange(T), 9), e_owner[nonzero]]),
            weight=np.concatenate([unit.reshape(-1), e_term[nonzero]]),
            incidence=incidence,
        )


def _operator(mesh: Mesh, cfg: CEMConfig) -> MeshOperator:
    """The mesh's CEM operator, once the configuration is checked against it.

    Raises
    ------
    ElectrodeCountMismatch
        If the mesh and the configuration disagree on the electrode count.
    """
    if mesh.n_electrodes != cfg.L:
        raise ElectrodeCountMismatch(
            f"the mesh has {mesh.n_electrodes} electrodes, the CEM configuration {cfg.L}"
        )
    return mesh.cem_operator


def _assemble(op: MeshOperator, cfg: CEMConfig, sigma: np.ndarray) -> np.ndarray:
    """The reduced SPD system at nodal conductivity sigma, in one scatter.

    The array is Fortran-ordered (the transpose of the scatter's row-major
    result, equal to it by symmetry) so that LAPACK factors it in place.
    """
    coef = np.concatenate([sigma[op.triangles].sum(axis=1), 1.0 / cfg.z])
    M = op.size
    return np.bincount(op.index, coef[op.owner] * op.weight, minlength=M * M).reshape(M, M).T


def _solve_nodes(factor: tuple, electrode_rhs: np.ndarray) -> np.ndarray:
    """Node rows of the reduced solve for right-hand sides that vanish on the
    node rows and equal ``electrode_rhs`` (L-1, k) on the electrode rows."""
    M = factor[0].shape[0]
    N = M - electrode_rhs.shape[0]
    rhs = np.zeros((M, electrode_rhs.shape[1]))
    rhs[N:] = electrode_rhs
    return cho_solve(factor, rhs, check_finite=False)[:N]


@dataclass
class ForwardSolution:
    voltages: np.ndarray  # (P, L) electrode voltages, sum_l V = 0 per pattern
    factor: tuple  # cho_factor of the reduced system
    currents: np.ndarray  # (L-1, P) injected currents in the zero-sum basis, Q^T I

    @cached_property
    def node_potentials(self) -> np.ndarray:
        """(N, P) node potentials, solved on first access."""
        return _solve_nodes(self.factor, self.currents)


def solve_forward(mesh: Mesh, cfg: CEMConfig, sigma: np.ndarray) -> ForwardSolution:
    """Solve the CEM for all patterns off one factorization.

    The right-hand side vanishes on the node rows, so the forward
    substitution is zero there and the electrode unknowns solve with the
    trailing (L-1) x (L-1) block of the Cholesky factor alone; the node
    potentials are solved only when read.

    Raises
    ------
    ElectrodeCountMismatch
        If the mesh and the configuration disagree on the electrode count.
    SingularSystem
        If the conductivity is non-positive somewhere or the reduced system
        fails to factor.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.n_nodes,):
        raise ValueError(f"sigma has shape {sigma.shape}, expected ({mesh.n_nodes},)")
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
        raise SingularSystem("conductivity must be strictly positive and finite")
    op = _operator(mesh, cfg)
    A = _assemble(op, cfg, sigma)
    try:
        factor = cho_factor(A, lower=True, check_finite=False, overwrite_a=True)
    except LinAlgError as exc:
        raise SingularSystem(f"reduced CEM system not SPD: {exc}") from exc

    I = cfg.current_matrix()
    currents = I[:-1] - I[-1]  # Q^T I
    N = mesh.n_nodes
    v = cho_solve((factor[0][N:, N:], True), currents, check_finite=False)
    voltages = np.vstack([v, -v.sum(axis=0)]).T  # (Q v)^T
    return ForwardSolution(voltages, factor, currents)


def measurements(cfg: CEMConfig, voltages: np.ndarray) -> np.ndarray:
    """Stack per-pattern voltages, discarding the current-carrying electrodes."""
    return voltages[cfg.kept_mask()]


def forward(mesh: Mesh, cfg: CEMConfig, sigma: np.ndarray) -> np.ndarray:
    """F(sigma): the stacked measurement vector."""
    return measurements(cfg, solve_forward(mesh, cfg, sigma).voltages)


def jacobian(
    mesh: Mesh, cfg: CEMConfig, sigma: np.ndarray, solution: ForwardSolution | None = None
) -> np.ndarray:
    """dF/dsigma at the interior nodes, by the adjoint method.

    One block solve against the factored system yields the node potentials
    u and the electrode-functional adjoint fields w together; the
    sensitivity of measurement (p, l) to nodal sigma_q is -(1/3) sum over
    elements containing q of A_e grad(u_p) . grad(w_l).  ``solution``, the
    forward solution at this sigma when the caller has it, saves the
    factorization.
    """
    fs = solve_forward(mesh, cfg, sigma) if solution is None else solution
    op = _operator(mesh, cfg)
    P, L = cfg.n_patterns, cfg.L
    # [Q^T I | Q^T]: the injected currents and the functionals V_l
    uw = _solve_nodes(fs.factor, np.hstack([fs.currents, _zero_sum_basis(L).T]))[op.triangles]
    B = np.einsum("ti,tik->tk", op.b, uw)  # (T, P + L)
    C = np.einsum("ti,tik->tk", op.c, uw)
    T1 = (B[:, :P, None] * B[:, None, P:] + C[:, :P, None] * C[:, None, P:]) / (
        4.0 * op.areas[:, None, None]
    )  # (T, P, L) = A_e grad u_p . grad w_l
    sens = op.incidence @ T1.reshape(len(T1), P * L)  # (interior nodes, P L)
    return sens[:, cfg.kept_mask().reshape(-1)].T * (-1.0 / 3.0)


def paint_disk_inclusion(
    mesh: Mesh, background: float, center: tuple[float, float], radius: float, value: float
) -> np.ndarray:
    """Nodal conductivity: background with a circular inclusion set to value."""
    sigma = np.full(mesh.n_nodes, background)
    d = np.hypot(mesh.nodes[:, 0] - center[0], mesh.nodes[:, 1] - center[1])
    sigma[d <= radius] = value
    return sigma


def synth_data(
    mesh_fine: Mesh,
    cfg: CEMConfig,
    sigma_true: np.ndarray,
    noise_std: float,
    seed: int,
) -> tuple[np.ndarray, dict]:
    """Noisy measurements from a fine forward mesh (inverse-crime avoidance is
    the caller's responsibility: synthesize on a strictly finer mesh than the
    inversion mesh)."""
    clean = forward(mesh_fine, cfg, sigma_true)
    rng = np.random.default_rng(seed)
    data = clean + noise_std * rng.standard_normal(clean.shape)
    truth = {
        "seed": int(seed),
        "noise_std": float(noise_std),
        "clean": clean,
        "sigma_true": np.asarray(sigma_true, dtype=float),
    }
    return data, truth


class EITForwardModel(ForwardModel):
    """Forward map on interior nodal conductivities; boundary nodes are held
    at the background value.

    The model keeps the forward solution at the last x it solved for (with a
    copy of that x), so a Jacobian and an evaluation at the same point share
    one factorization."""

    def __init__(self, mesh: Mesh, cfg: CEMConfig, sigma_bg: float = SIGMA_BG,
                 floor: float = SIGMA_FLOOR):
        self.mesh = mesh
        self.cfg = cfg
        self.sigma_bg = float(sigma_bg)
        self.floor = float(floor)
        self.m = cfg.n_measurements
        self.n = len(mesh.interior_node_ids)
        self._last: tuple[np.ndarray, ForwardSolution] | None = None

    def full_sigma(self, x: np.ndarray) -> np.ndarray:
        sigma = np.full(self.mesh.n_nodes, self.sigma_bg)
        sigma[self.mesh.interior_node_ids] = x
        return sigma

    def _solution(self, x: np.ndarray) -> ForwardSolution:
        if np.any(x < self.floor):
            raise SingularSystem("conductivity below the admissibility floor")
        if self._last is not None and np.array_equal(self._last[0], x):
            return self._last[1]
        fs = solve_forward(self.mesh, self.cfg, self.full_sigma(x))
        self._last = (np.array(x, dtype=float), fs)
        return fs

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return measurements(self.cfg, self._solution(x).voltages)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return jacobian(self.mesh, self.cfg, self.full_sigma(x), self._solution(x))
