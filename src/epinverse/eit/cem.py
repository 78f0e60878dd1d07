"""2D complete electrode model: piecewise-linear FEM forward solver, adjoint
Jacobian, and synthetic data generation.

The variational system couples node potentials u with electrode voltages V
through the contact-impedance boundary terms; the zero-sum voltage constraint
is enforced by an explicit (L-1)-dimensional basis so the assembled system
stays SPD and one Cholesky factorization serves all current patterns and all
adjoint solves.  Conductivity lives in the same nodal P1 space as the
potential and is interpolated at element centroids (1-point rule) for the
stiffness entries.

Everything that does not depend on the conductivity (element geometry, a
reverse Cuthill-McKee order of the nodes and its half-bandwidth, the scatter
positions in the reduced system, the reduced electrode terms, the
node-element incidence) is built once per mesh (``MeshOperator``), and what
depends only on the electrodes (Q^T I, 1/z, the kept measurements) once per
``CEMConfig``.  A solve
scatters the conductivity-weighted terms into three blocks: the node block
as a lower band, the electrode-node coupling and the small electrode block.
It factors the band (``dpbtrf``), forms the Schur complement onto the
electrodes and factors that densely; the voltages solve with the Schur
factor, which is the trailing block of the full factor, and the node
potentials take one banded back-substitution.  No dense factor of the
whole reduced system is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from ..errors import ElectrodeCountMismatch, NonFiniteResult, SingularSystem
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


@dataclass(frozen=True)
class CEMConfig:
    """Electrode layer of the CEM: contact impedances, injection patterns and
    amplitude.  Grounding is the zero-sum convention sum_l V_l = 0, enforced
    structurally by the solver's reduced basis.

    The configuration is frozen, with ``z`` read-only and ``patterns`` a
    tuple, so the constants every solve reads are built once, here:
    ``reduced_currents`` (Q^T I), ``inv_z`` (1/z) and ``kept_index`` (the
    flat positions of ``kept_mask()``)."""

    z: np.ndarray  # contact impedances [Ohm*m, 2D-reduced], one per electrode
    patterns: tuple[tuple[int, int], ...]
    amplitude: float = CURRENT_AMPLITUDE
    reduced_currents: np.ndarray = field(init=False, repr=False, compare=False)
    inv_z: np.ndarray = field(init=False, repr=False, compare=False)
    kept_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=float)
        if z.ndim != 1:
            raise ValueError(f"contact impedances must be 1-D, one per electrode; got shape {z.shape}")
        if np.any(z <= 0.0):
            raise ValueError("contact impedances must be positive")
        patterns = tuple((a, b) for a, b in self.patterns)
        L = z.shape[0]
        for a, b in patterns:
            if not (0 <= a < L and 0 <= b < L):
                raise ValueError(f"pattern ({a}, {b}) names an electrode outside 0..{L - 1}")
            if a == b:
                raise ValueError("pattern injects and grounds the same electrode")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "patterns", patterns)
        I = self.current_matrix()
        for name, value in (
            ("reduced_currents", I[:-1] - I[-1]),
            ("inv_z", 1.0 / z),
            ("kept_index", np.flatnonzero(self.kept_mask())),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and unpickled configs are rebuilt through __init__, read-only again
        return (CEMConfig, (self.z, self.patterns, self.amplitude))

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
    then one scatter, ``bincount(index, coef[owner] * weight)``, into one
    flat buffer of three blocks, with the nodes in reverse Cuthill-McKee
    order (mesh node q at band position ``rank[q]``):

    - the lower band of the (N, N) node block in LAPACK ``(kd+1, N)``
      storage, Fortran order;
    - the (L-1, N) electrode-node coupling;
    - the (L-1, L-1) electrode block.

    The upper-triangle node terms and the node-electrode duplicates of the
    coupling are dropped when the operator is built.
    """

    n_nodes: int
    n_electrodes: int
    triangles: np.ndarray  # (T, 3)
    areas: np.ndarray  # (T,) signed
    b: np.ndarray  # (T, 3) gradient coefficients, grad phi_i = (b_i, c_i)/(2A)
    c: np.ndarray  # (T, 3)
    rank: np.ndarray  # (N,) band position of each mesh node
    kd: int  # half-bandwidth of the node block in that order
    index: np.ndarray  # flat position of each term in the block buffer
    owner: np.ndarray  # its coefficient: element t, or T + l for electrode l
    weight: np.ndarray  # its value at unit coefficient
    incidence: sparse.csr_matrix  # (interior nodes, T): 1 where the node is a vertex

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "MeshOperator":
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        N, L, T = mesh.n_nodes, mesh.n_electrodes, mesh.n_triangles
        tri = mesh.triangles
        p = mesh.nodes[tri]  # (T, 3, 2)
        x, y = p[..., 0], p[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        areas = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        # element stiffness (b_i b_j + c_i c_j)/(4A) at the centroid value sum/3
        unit = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (12.0 * areas[:, None, None])

        # reverse Cuthill-McKee on the triangle adjacency bounds the node block's band
        edges = (tri[:, [0, 0, 1, 1, 2, 2]].reshape(-1), tri[:, [1, 2, 0, 2, 0, 1]].reshape(-1))
        adjacency = sparse.csr_matrix((np.ones(6 * T), edges), shape=(N, N))
        rank = np.empty(N, dtype=np.int64)
        rank[reverse_cuthill_mckee(adjacency, symmetric_mode=True)] = np.arange(N)
        k_row, k_col = rank[tri][:, :, None], rank[tri][:, None, :]
        kd = int((k_row - k_col).max())

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
        e_term = d[:, None, None] * (P.transpose(0, 2, 1) @ (_EDGE_TERM @ P))
        # reduced unknowns in block order (band positions, then N + electrode),
        # keeping the lower node band, the coupling once and E whole
        dofs = np.hstack([rank[ab], np.broadcast_to(N + np.arange(L - 1), (len(elec), L - 1))])
        e_row = np.broadcast_to(dofs[:, :, None], e_term.shape)
        e_col = np.broadcast_to(dofs[:, None, :], e_term.shape)
        e_keep = ((e_row >= e_col) | (e_row >= N)) & (e_term != 0.0)
        e_owner = np.broadcast_to((T + elec)[:, None, None], e_term.shape)
        k_keep = k_row >= k_col
        k_owner = np.broadcast_to(np.arange(T)[:, None, None], unit.shape)
        row = np.concatenate([np.broadcast_to(k_row, unit.shape)[k_keep], e_row[e_keep]])
        col = np.concatenate([np.broadcast_to(k_col, unit.shape)[k_keep], e_col[e_keep]])
        index = np.where(
            col < N,
            np.where(row < N, col * (kd + 1) + row - col, (kd + 1) * N + (row - N) * N + col),
            (kd + 1 + L - 1) * N + (row - N) * (L - 1) + col - N,
        )
        owner = np.concatenate([k_owner[k_keep], e_owner[e_keep]])
        weight = np.concatenate([unit[k_keep], e_term[e_keep]])
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
            rank=rank,
            kd=kd,
            index=index,
            owner=owner,
            weight=weight,
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


def _assemble(op: MeshOperator, cfg: CEMConfig, sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three blocks of the reduced SPD system at nodal conductivity
    sigma, in one scatter: the (kd+1, N) node band (Fortran order, so that
    LAPACK factors it in place), the (L-1, N) coupling and the (L-1, L-1)
    electrode block."""
    # the element sums left to right, as sum(axis=1) adds them
    s = sigma[op.triangles.T]
    coef = np.concatenate([s[0] + s[1] + s[2], cfg.inv_z])
    N, E, kd = op.n_nodes, op.n_electrodes - 1, op.kd
    flat = np.bincount(op.index, coef[op.owner] * op.weight, minlength=(kd + 1 + E) * N + E * E)
    split = (kd + 1) * N
    return (
        flat[:split].reshape(N, kd + 1).T,
        flat[split : split + E * N].reshape(E, N),
        flat[split + E * N :].reshape(E, E),
    )


@dataclass(frozen=True)
class CEMFactor:
    """Block Cholesky factor of the reduced system [[A, B], [B^T, E]], nodes
    in the operator's band order: A = L L^T, W = L^-1 B, and the Cholesky
    factor of the Schur complement S = E - W^T W, which is the trailing
    (L-1) x (L-1) block of the full factor."""

    band: np.ndarray  # (kd+1, N) lower band of L, LAPACK storage
    coupling: np.ndarray  # (N, L-1) W
    schur: np.ndarray  # (L-1, L-1) lower Cholesky factor of S
    rank: np.ndarray  # (N,) band position of each mesh node


def cho_factor(blocks: tuple[np.ndarray, np.ndarray, np.ndarray], rank: np.ndarray) -> CEMFactor:
    """Factor the assembled blocks: ``dpbtrf`` on the node band (in place),
    ``dtbtrs`` for W, and a dense Cholesky of the Schur complement.

    Raises
    ------
    SingularSystem
        If the node block or the Schur complement is not positive definite.
    """
    band, coupling, electrode = blocks
    band, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SingularSystem(f"reduced CEM system not SPD: node block minor {info} is not positive")
    W, _ = lapack.dtbtrs(band, coupling.T, uplo="L", overwrite_b=1)
    schur, info = lapack.dpotrf(electrode - W.T @ W, lower=1, clean=0)
    if info != 0:
        raise SingularSystem(f"reduced CEM system not SPD: Schur complement minor {info} is not positive")
    return CEMFactor(band, W, schur, rank)


def cho_solve(factor: CEMFactor, electrode_rhs: np.ndarray, nodes: bool = False) -> np.ndarray:
    """Solve the reduced system for right-hand sides that vanish on the node
    rows and equal ``electrode_rhs`` (L-1, k) on the electrode rows.

    The electrode rows are x = S^-1 rhs.  With ``nodes`` the node rows
    -L^-T (W x) are returned instead, in mesh order, C-contiguous (N, k).
    """
    x, _ = lapack.dpotrs(factor.schur, electrode_rhs, lower=1)
    if not nodes:
        return x
    # -(W x) as the transpose of a C-ordered product: Fortran order, as dtbtrs wants
    y = (x.T @ factor.coupling.T).T
    np.negative(y, out=y)
    u, _ = lapack.dtbtrs(factor.band, y, uplo="L", trans="T", overwrite_b=1)
    return u[factor.rank]


@dataclass
class ForwardSolution:
    voltages: np.ndarray  # (P, L) electrode voltages, sum_l V = 0 per pattern
    factor: CEMFactor  # block factor of the reduced system
    currents: np.ndarray  # (L-1, P) injected currents in the zero-sum basis, Q^T I

    @cached_property
    def node_potentials(self) -> np.ndarray:
        """(N, P) node potentials, solved on first access."""
        return cho_solve(self.factor, self.currents, nodes=True)


def solve_forward(mesh: Mesh, cfg: CEMConfig, sigma: np.ndarray) -> ForwardSolution:
    """Solve the CEM for all patterns off one factorization.

    The right-hand side vanishes on the node rows, so the electrode unknowns
    solve with the Schur complement's factor alone; the node potentials are
    solved only when read.

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
    # rejects 0, -0.0, negatives, NaN and +-inf
    if not (sigma.min() > 0.0 and sigma.max() < np.inf):
        raise SingularSystem("conductivity must be strictly positive and finite")
    op = _operator(mesh, cfg)
    factor = cho_factor(_assemble(op, cfg, sigma), op.rank)
    currents = cfg.reduced_currents
    v = cho_solve(factor, currents)
    voltages = np.empty((cfg.n_patterns, cfg.L))  # (Q v)^T
    voltages[:, :-1] = v.T
    voltages[:, -1] = -v.sum(axis=0)
    return ForwardSolution(voltages, factor, currents)


def measurements(cfg: CEMConfig, voltages: np.ndarray) -> np.ndarray:
    """Stack per-pattern voltages, discarding the current-carrying electrodes."""
    if np.shape(voltages) != (cfg.n_patterns, cfg.L):
        raise ValueError(f"voltages have shape {np.shape(voltages)}, expected ({cfg.n_patterns}, {cfg.L})")
    return np.take(voltages, cfg.kept_index)


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
    uw = cho_solve(fs.factor, np.hstack([fs.currents, _zero_sum_basis(L).T]), nodes=True)[op.triangles]
    B = np.einsum("ti,tik->tk", op.b, uw)  # (T, P + L)
    C = np.einsum("ti,tik->tk", op.c, uw)
    # (T, P, L) = A_e grad u_p . grad w_l, built in place
    T1 = B[:, :P, None] * B[:, None, P:]
    T1 += C[:, :P, None] * C[:, None, P:]
    T1 /= 4.0 * op.areas[:, None, None]
    sens = op.incidence @ T1.reshape(len(T1), P * L)  # (interior nodes, P L)
    return sens[:, cfg.kept_index].T * (-1.0 / 3.0)


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
    inversion mesh).  Data that are not finite raise NonFiniteResult."""
    clean = forward(mesh_fine, cfg, sigma_true)
    rng = np.random.default_rng(seed)
    data = clean + noise_std * rng.standard_normal(clean.shape)
    if not np.all(np.isfinite(data)):
        raise NonFiniteResult("synthesized data are not finite: the forward solve or the noise overflows")
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

    The model keeps the forward solution at the last x it solved for, keyed
    on that x's float64 shape and bytes, so a Jacobian and an evaluation at
    the same point share one factorization."""

    def __init__(self, mesh: Mesh, cfg: CEMConfig, sigma_bg: float = SIGMA_BG,
                 floor: float = SIGMA_FLOOR):
        self.mesh = mesh
        self.cfg = cfg
        self.sigma_bg = float(sigma_bg)
        self.floor = float(floor)
        self.m = cfg.n_measurements
        self.n = len(mesh.interior_node_ids)
        self._last: tuple[tuple, ForwardSolution] | None = None

    def full_sigma(self, x: np.ndarray) -> np.ndarray:
        sigma = np.full(self.mesh.n_nodes, self.sigma_bg)
        sigma[self.mesh.interior_node_ids] = x
        return sigma

    def _solution(self, x: np.ndarray) -> ForwardSolution:
        x = np.asarray(x, dtype=float)
        # fmin skips NaN, as any(x < floor) does
        if np.fmin.reduce(x) < self.floor:
            raise SingularSystem("conductivity below the admissibility floor")
        # -0.0 and +0.0 differ here: a harmless re-solve (and NaN never gets
        # past solve_forward into the cache)
        key = (x.shape, x.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        fs = solve_forward(self.mesh, self.cfg, self.full_sigma(x))
        self._last = (key, fs)
        return fs

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return measurements(self.cfg, self._solution(x).voltages)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return jacobian(self.mesh, self.cfg, self.full_sigma(x), self._solution(x))
