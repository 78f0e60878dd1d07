import copy
import dataclasses
import pickle

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from epinverse.ep import EPOptions, Site
from epinverse.eit import (
    ALPHA_DEFAULT,
    CEMConfig,
    EITForwardModel,
    ELECTRODE_COVERAGE,
    LAMBDA_DEFAULT,
    Mesh,
    SIGMA_BG,
    SIGMA_FLOOR,
    TANK_RADIUS,
    adjacent_patterns,
    default_config,
    forward,
    gen_disk_mesh,
    jacobian,
    measurements,
    paint_disk_inclusion,
    solve_forward,
    synth_data,
)
from epinverse.eit import cem
from epinverse.errors import ElectrodeCountMismatch, SingularSystem
from epinverse.factors import LaplacePositivityFactor
from epinverse.nonlinear import NonlinearOptions, run_nonlinear


@pytest.fixture(scope="module")
def mesh():
    return gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 424)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def homo(mesh):
    return np.full(mesh.n_nodes, SIGMA_BG)


def test_pattern_count_and_measurement_size(cfg):
    assert cfg.n_patterns == 15
    assert cfg.n_measurements == 15 * 14
    I = cfg.current_matrix()
    assert np.allclose(I.sum(axis=0), 0.0, atol=0.0)


def test_ground_constraint(mesh, cfg, homo):
    fs = solve_forward(mesh, cfg, homo)
    assert np.abs(fs.voltages.sum(axis=1)).max() <= 1e-10


def test_reciprocity(mesh, cfg, homo):
    # pair-difference of (k, k+1) under injection (i, i+1) equals the swap
    V = solve_forward(mesh, cfg, homo).voltages
    worst = 0.0
    for i in range(15):
        for k in range(15):
            if i == k:
                continue
            a = V[i, k] - V[i, k + 1]
            b = V[k, i] - V[k, i + 1]
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-8


def test_reciprocity_inhomogeneous(mesh, cfg):
    sigma = paint_disk_inclusion(mesh, SIGMA_BG, (0.04, -0.03), 0.04, 3.0 * SIGMA_BG)
    V = solve_forward(mesh, cfg, sigma).voltages
    for i, k in [(0, 7), (3, 11), (14, 2)]:
        a = V[i, k] - V[i, k + 1]
        b = V[k, i] - V[k, i + 1]
        assert abs(a - b) / max(abs(a), abs(b)) <= 1e-8


def test_sigma_scaling_law(mesh, cfg, homo):
    # joint homogeneity: V(c sigma, z/c) = V(sigma, z)/c; exact for c = 4
    c = 4.0
    V = solve_forward(mesh, cfg, homo).voltages
    cfg2 = CEMConfig(z=cfg.z / c, patterns=cfg.patterns)
    V2 = solve_forward(mesh, cfg2, c * homo).voltages
    assert np.abs(c * V2 - V).max() <= 1e-12 * np.abs(V).max()


def test_jacobian_scaling_law(mesh, cfg, homo):
    c = 4.0
    J = jacobian(mesh, cfg, homo)
    J2 = jacobian(mesh, CEMConfig(z=cfg.z / c, patterns=cfg.patterns), c * homo)
    assert np.abs(c * c * J2 - J).max() <= 1e-10 * np.abs(J).max()


def test_jacobian_matches_finite_differences(mesh, cfg, homo):
    J = jacobian(mesh, cfg, homo)
    rng = np.random.default_rng(1)
    eps = 1e-4 * SIGMA_BG
    for _ in range(10):
        d_int = rng.standard_normal(len(mesh.interior_node_ids))
        d = np.zeros(mesh.n_nodes)
        d[mesh.interior_node_ids] = d_int
        fd = (forward(mesh, cfg, homo + eps * d) - forward(mesh, cfg, homo - eps * d)) / (2 * eps)
        jd = J @ d_int
        assert np.linalg.norm(fd - jd) / np.linalg.norm(jd) <= 1e-5


def three_temporary_jacobian(mesh, cfg, sigma):
    """cem.jacobian with the (T, P, L) product formed as it was, from three
    full temporaries in one expression."""
    fs = solve_forward(mesh, cfg, sigma)
    op = cem._operator(mesh, cfg)
    P, L = cfg.n_patterns, cfg.L
    uw = cem.cho_solve(fs.factor, np.hstack([fs.currents, cem._zero_sum_basis(L).T]), nodes=True)[op.triangles]
    B = np.einsum("ti,tik->tk", op.b, uw)
    C = np.einsum("ti,tik->tk", op.c, uw)
    T1 = (B[:, :P, None] * B[:, None, P:] + C[:, :P, None] * C[:, None, P:]) / (4.0 * op.areas[:, None, None])
    sens = op.incidence @ T1.reshape(len(T1), P * L)
    return sens[:, cfg.kept_index].T * (-1.0 / 3.0)


def test_jacobian_is_bitwise_the_three_temporary_product(mesh, cfg, homo):
    rng = np.random.default_rng(4)
    for sigma in (homo, homo * rng.uniform(0.5, 2.0, homo.size)):
        J = jacobian(mesh, cfg, sigma)
        assert J.tobytes() == three_temporary_jacobian(mesh, cfg, sigma).tobytes()


def test_jacobian_information_decay(mesh, cfg, homo):
    # per unit area, nodes near the electrodes carry far more signal than
    # center nodes (raw column norms would be skewed by the mesh grading)
    from epinverse.eit.mesh import triangle_areas

    J = jacobian(mesh, cfg, homo)
    areas = triangle_areas(mesh.nodes, mesh.triangles)
    lumped = np.zeros(mesh.n_nodes)
    for i in range(3):
        np.add.at(lumped, mesh.triangles[:, i], areas / 3.0)
    r = np.hypot(*mesh.nodes[mesh.interior_node_ids].T)
    norms = np.linalg.norm(J, axis=0) / lumped[mesh.interior_node_ids]
    near = norms[r > 0.75 * TANK_RADIUS].mean()
    center = norms[r < 0.4 * TANK_RADIUS].mean()
    assert near > 3.0 * center


def test_forward_rejects_bad_sigma(mesh, cfg):
    sigma = np.full(mesh.n_nodes, SIGMA_BG)
    sigma[10] = 0.0
    with pytest.raises(SingularSystem):
        forward(mesh, cfg, sigma)
    with pytest.raises(SingularSystem):
        forward(mesh, cfg, np.full(mesh.n_nodes, np.nan))


def test_self_convergence_under_refinement(cfg):
    sigma_fn = lambda m: paint_disk_inclusion(m, SIGMA_BG, (0.05, 0.02), 0.035, 0.5 * SIGMA_BG)
    targets = (300, 1200, 4800)
    Vs = []
    for t in targets:
        m = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, t)
        Vs.append(forward(m, cfg, sigma_fn(m)))
    d01 = np.linalg.norm(Vs[0] - Vs[1])
    d12 = np.linalg.norm(Vs[1] - Vs[2])
    assert d12 < d01


def test_synth_data_deterministic_and_unbiased(mesh, cfg, homo):
    data1, truth1 = synth_data(mesh, cfg, homo, noise_std=1e-3, seed=7)
    data2, _ = synth_data(mesh, cfg, homo, noise_std=1e-3, seed=7)
    assert np.array_equal(data1, data2)
    clean = forward(mesh, cfg, homo)
    assert np.array_equal(truth1["clean"], clean)
    data0, _ = synth_data(mesh, cfg, homo, noise_std=0.0, seed=3)
    assert np.array_equal(data0, clean)


def test_forward_model_wrapper(mesh, cfg):
    model = EITForwardModel(mesh, cfg)
    assert model.m == cfg.n_measurements
    assert model.n == len(mesh.interior_node_ids)
    x = np.full(model.n, SIGMA_BG)
    F = model.evaluate(x)
    assert F.shape == (model.m,)
    J = model.jacobian(x)
    assert J.shape == (model.m, model.n)
    with pytest.raises(SingularSystem):
        model.evaluate(np.full(model.n, -1.0))


def test_measurement_stacking_order(mesh, cfg, homo):
    fs = solve_forward(mesh, cfg, homo)
    F = measurements(cfg, fs.voltages)
    # first pattern (0,1): kept electrodes are 2..15 in order
    assert np.array_equal(F[:14], fs.voltages[0, 2:])
    assert F.shape == (cfg.n_measurements,)


def test_adjacent_patterns_shape():
    pats = adjacent_patterns(16)
    assert len(pats) == 15
    assert pats[0] == (0, 1) and pats[-1] == (14, 15)


def test_per_electrode_current_balance(mesh, cfg, homo):
    # the solved fields must return exactly the injected currents:
    # I_l = (1/z_l) (|e_l| V_l - int_{e_l} u ds), trapezoid rule exact for P1
    fs = solve_forward(mesh, cfg, homo)
    I = cfg.current_matrix()
    for p in range(cfg.n_patterns):
        u = fs.node_potentials[:, p]
        for l, edges in enumerate(mesh.electrode_edges):
            total = 0.0
            for a, b in edges:
                d = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a])
                total += d / cfg.z[l] * (fs.voltages[p, l] - 0.5 * (u[a] + u[b]))
            assert abs(total - I[l, p]) <= 1e-10 * cfg.amplitude


# ---------------------------------------------------------------------------
# the precomputed operator against the direct assembly
# ---------------------------------------------------------------------------


def loop_reduced_system(mesh, cfg, sigma):
    """The reduced CEM system built the direct way: element and electrode-edge
    loops into the full (N+L) system, then reduced through the zero-sum basis
    block by block."""
    N, L = mesh.n_nodes, cfg.L
    p = mesh.nodes[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    areas = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    coef = sigma[mesh.triangles].mean(axis=1) / (4.0 * areas)
    Ke = coef[:, None, None] * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    A = np.zeros((N + L, N + L))
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    np.add.at(A, (rows, cols), Ke.reshape(-1))
    for l, edges in enumerate(mesh.electrode_edges):
        zl = cfg.z[l]
        for a, b_ in edges:
            d = float(np.linalg.norm(mesh.nodes[b_] - mesh.nodes[a]))
            m = d / (6.0 * zl)
            A[a, a] += 2.0 * m
            A[b_, b_] += 2.0 * m
            A[a, b_] += m
            A[b_, a] += m
            for n in (a, b_):
                A[n, N + l] -= d / (2.0 * zl)
                A[N + l, n] -= d / (2.0 * zl)
            A[N + l, N + l] += d / zl
    Q = np.vstack([np.eye(L - 1), -np.ones((1, L - 1))])
    R = np.zeros((N + L - 1, N + L - 1))
    R[:N, :N] = A[:N, :N]
    R[:N, N:] = A[:N, N:] @ Q
    R[N:, :N] = Q.T @ A[N:, :N]
    R[N:, N:] = Q.T @ A[N:, N:] @ Q
    return R, Q


CUSTOM_PATTERNS = [(0, 8), (3, 12), (15, 1), (5, 6), (10, 2), (7, 15)]


@pytest.fixture(scope="module", params=[300, 1200])
def oracle_case(request):
    m = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, request.param)
    rng = np.random.default_rng(request.param)
    cfg = CEMConfig(z=rng.uniform(1e-4, 5e-4, 16), patterns=CUSTOM_PATTERNS, amplitude=2e-3)
    sigma = paint_disk_inclusion(m, SIGMA_BG, (0.05, 0.02), 0.035, 0.25 * SIGMA_BG)
    sigma *= rng.uniform(0.5, 2.0, m.n_nodes)
    return m, cfg, sigma


def test_operator_assembly_matches_loop_assembly(oracle_case):
    # the scatter fills the three blocks of the loop-assembled system, nodes
    # in the operator's band order, and the band holds every node coupling
    m, cfg, sigma = oracle_case
    R_ref, _ = loop_reduced_system(m, cfg, sigma)
    op = m.cem_operator
    N, kd = m.n_nodes, op.kd
    order = np.argsort(op.rank)
    A_ref = R_ref[:N, :N][np.ix_(order, order)]
    i, j = np.nonzero(A_ref)
    assert np.abs(i - j).max() <= kd
    band_ref = np.zeros((kd + 1, N))
    for r in range(kd + 1):
        band_ref[r, : N - r] = np.diagonal(A_ref, -r)
    blocks = cem._assemble(op, cfg, sigma)
    refs = (band_ref, R_ref[N:, :N][:, order], R_ref[N:, N:])
    for got, ref in zip(blocks, refs):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_trailing_block_voltages_match_full_solve(oracle_case):
    m, cfg, sigma = oracle_case
    R_ref, Q = loop_reduced_system(m, cfg, sigma)
    N = m.n_nodes
    rhs = np.zeros((R_ref.shape[0], cfg.n_patterns))
    rhs[N:] = Q.T @ cfg.current_matrix()
    sol = cho_solve(cho_factor(R_ref, lower=True), rhs)
    V_ref = (Q @ sol[N:]).T
    fs = solve_forward(m, cfg, sigma)
    scale = np.abs(V_ref).max()
    assert np.abs(fs.voltages - V_ref).max() <= 1e-9 * scale
    u_ref = sol[:N]
    assert np.abs(fs.node_potentials - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
    assert np.array_equal(forward(m, cfg, sigma), measurements(cfg, fs.voltages))


def test_solve_guards(mesh, cfg):
    sigma = np.full(mesh.n_nodes, SIGMA_BG)
    with pytest.raises(ValueError):
        solve_forward(mesh, cfg, sigma[:-1])
    for bad in (0.0, -0.0, -SIGMA_BG, np.nan, np.inf, -np.inf):
        for at in (0, 7, mesh.n_nodes - 1):
            s = sigma.copy()
            s[at] = bad
            with pytest.raises(SingularSystem, match="strictly positive and finite"):
                solve_forward(mesh, cfg, s)
    # reversed triangles turn every element stiffness negative: not SPD
    flipped = Mesh(mesh.nodes, mesh.triangles[:, [0, 2, 1]], mesh.electrode_edges, mesh.interior_node_ids)
    with pytest.raises(SingularSystem, match="not SPD"):
        solve_forward(flipped, cfg, sigma)


def test_node_potentials_are_c_ordered_and_match_the_dense_solve(oracle_case):
    m, cfg, sigma = oracle_case
    R_ref, Q = loop_reduced_system(m, cfg, sigma)
    N = m.n_nodes
    rhs = np.zeros((R_ref.shape[0], cfg.n_patterns))
    rhs[N:] = Q.T @ cfg.current_matrix()
    u_ref = cho_solve(cho_factor(R_ref, lower=True), rhs)[:N]
    u = solve_forward(m, cfg, sigma).node_potentials
    assert u.flags.c_contiguous and u.shape == (N, cfg.n_patterns)
    assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()


# contact impedances and inclusion contrast of the extreme inputs
EXTREME_INPUTS = {
    "z=1e-7": (np.full(16, 1e-7), 1.0),
    "z=1e-1": (np.full(16, 1e-1), 1.0),
    "mixed z, contrast 1e3": (np.random.default_rng(7).permutation(np.logspace(-7, -1, 16)), 1e3),
    "contrast 1e4": (np.random.default_rng(7).uniform(1e-4, 5e-4, 16), 1e4),
}


@pytest.mark.parametrize("case", list(EXTREME_INPUTS))
def test_block_solve_is_backward_stable_at_extreme_inputs(oracle_case, case):
    # normwise backward error of [u; v] against the loop-assembled system
    m = oracle_case[0]
    z, contrast = EXTREME_INPUTS[case]
    cfg = CEMConfig(z=z, patterns=CUSTOM_PATTERNS)
    sigma = paint_disk_inclusion(m, SIGMA_BG, (0.05, 0.02), 0.035, contrast * SIGMA_BG)
    R, Q = loop_reduced_system(m, cfg, sigma)
    N = m.n_nodes
    rhs = np.zeros((R.shape[0], cfg.n_patterns))
    rhs[N:] = Q.T @ cfg.current_matrix()
    fs = solve_forward(m, cfg, sigma)
    x = np.vstack([fs.node_potentials, fs.voltages[:, :-1].T])
    for k in range(cfg.n_patterns):
        r = R @ x[:, k] - rhs[:, k]
        eta = np.abs(r).max() / (np.abs(R).sum(axis=1).max() * np.abs(x[:, k]).max() + np.abs(rhs[:, k]).max())
        assert eta <= 1e-14, (case, k, eta)


def test_assembly_sums_each_element_like_sum_axis_1(mesh, cfg):
    # the blocks, bit for bit, of the scatter with coefficients sigma[t].sum(axis=1)
    op = mesh.cem_operator
    rng = np.random.default_rng(5)
    for sigma in (rng.uniform(1e-4, 1e-2, mesh.n_nodes), 10.0 ** rng.uniform(-300, 300, mesh.n_nodes)):
        coef = np.concatenate([sigma[op.triangles].sum(axis=1), 1.0 / cfg.z])
        N, E, kd = op.n_nodes, op.n_electrodes - 1, op.kd
        flat = np.bincount(op.index, coef[op.owner] * op.weight, minlength=(kd + 1 + E) * N + E * E)
        band, coupling, electrode = cem._assemble(op, cfg, sigma)
        got = np.concatenate([band.T.reshape(-1), coupling.reshape(-1), electrode.reshape(-1)])
        assert np.array_equal(got.view(np.uint64), flat.view(np.uint64))


def test_block_factor_rejects_an_indefinite_schur_complement():
    # a positive definite node block with an indefinite electrode block
    N, E, kd = 6, 3, 2
    band = np.zeros((kd + 1, N), order="F")
    band[0] = 2.0
    coupling = np.zeros((E, N))
    with pytest.raises(SingularSystem, match="not SPD"):
        cem.cho_factor((band, coupling, -np.eye(E)), np.arange(N))


def test_electrode_count_mismatch_is_a_typed_error(mesh):
    sigma = np.full(mesh.n_nodes, SIGMA_BG)
    for fn in (solve_forward, forward, jacobian):
        with pytest.raises(ElectrodeCountMismatch):
            fn(mesh, default_config(8), sigma)
    mesh8 = gen_disk_mesh(TANK_RADIUS, 8, ELECTRODE_COVERAGE, 200)
    with pytest.raises(ElectrodeCountMismatch):
        forward(mesh8, default_config(16), np.full(mesh8.n_nodes, SIGMA_BG))


@pytest.mark.parametrize(
    "z, patterns",
    [
        (np.full(16, 2e-4), [(-1, 0)]),
        (np.full(16, 2e-4), [(0, 16)]),
        (np.full(16, 2e-4), [(0, 1), (3, -2)]),
        (np.full((16, 1), 2e-4), [(0, 1)]),
        (np.full(16, 2e-4), [(4, 4)]),
    ],
)
def test_config_rejects_bad_patterns_and_impedances(z, patterns):
    with pytest.raises(ValueError):
        CEMConfig(z=z, patterns=patterns)


@pytest.mark.parametrize("bad", [0, slice(None)], ids=["one", "all"])
def test_config_rejects_nan_impedances(bad):
    # NaN impedances made solve_forward return NaN voltages with no error
    z = np.full(16, 2e-4)
    z[bad] = np.nan
    with pytest.raises(ValueError, match="impedances"):
        CEMConfig(z=z, patterns=cem.adjacent_patterns(16))


def test_kept_mask_drops_the_current_carrying_electrodes():
    cfg = CEMConfig(z=np.full(16, 2e-4), patterns=CUSTOM_PATTERNS)
    keep = cfg.kept_mask()
    assert keep.sum() == cfg.n_measurements == len(CUSTOM_PATTERNS) * 14
    for p, (a, b) in enumerate(CUSTOM_PATTERNS):
        assert np.array_equal(np.flatnonzero(keep[p]), [l for l in range(16) if l not in (a, b)])


@pytest.mark.parametrize(
    "config",
    [
        lambda: default_config(16),
        lambda: default_config(8),
        lambda: CEMConfig(z=np.linspace(1e-4, 4e-4, 16), patterns=CUSTOM_PATTERNS, amplitude=2e-3),
    ],
    ids=["L16", "L8", "custom"],
)
def test_config_constants_are_what_they_replace(config):
    cfg = config()
    I = cfg.current_matrix()
    assert np.array_equal(cfg.reduced_currents, I[:-1] - I[-1])
    assert np.array_equal(cfg.inv_z, 1.0 / cfg.z)
    V = np.random.default_rng(cfg.L).standard_normal((cfg.n_patterns, cfg.L))
    for layout in (V, np.asfortranarray(V)):
        assert np.array_equal(np.ravel(layout)[cfg.kept_index], layout[cfg.kept_mask()])
        assert np.array_equal(measurements(cfg, layout), layout[cfg.kept_mask()])


def test_measurements_refuse_voltages_of_another_shape():
    cfg = default_config(16)
    V = np.random.default_rng(3).standard_normal((cfg.n_patterns, cfg.L))
    for wrong in (V.T, np.stack([V, V]), V[:-1], V.ravel()):
        with pytest.raises(ValueError, match="shape"):
            measurements(cfg, wrong)


def test_config_is_frozen_and_owns_its_arrays():
    z = np.full(16, 2e-4)
    patterns = list(CUSTOM_PATTERNS)
    cfg = CEMConfig(z=z, patterns=patterns)
    z[0] = 1.0  # the caller's arrays stay the caller's
    patterns.append((1, 2))
    assert cfg.z[0] == 2e-4 and cfg.patterns == tuple(CUSTOM_PATTERNS)
    assert z.flags.writeable
    for name, value in (("z", z), ("patterns", CUSTOM_PATTERNS), ("amplitude", 1.0), ("inv_z", z)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    for c in (cfg, pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert c.patterns == cfg.patterns and np.array_equal(c.kept_index, cfg.kept_index)
        for arr in (c.z, c.reduced_currents, c.inv_z, c.kept_index):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


# ---------------------------------------------------------------------------
# one factorization per linearization point
# ---------------------------------------------------------------------------


@pytest.fixture
def factor_count(monkeypatch):
    calls = [0]
    orig = cem.cho_factor

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(cem, "cho_factor", counted)
    return calls


def test_model_shares_one_factorization_per_point(mesh, cfg, factor_count):
    model = EITForwardModel(mesh, cfg)
    x = np.full(model.n, SIGMA_BG)
    F = model.evaluate(x)
    J = model.jacobian(x)
    assert factor_count[0] == 1
    assert np.array_equal(F, forward(mesh, cfg, model.full_sigma(x)))
    assert np.array_equal(J, jacobian(mesh, cfg, model.full_sigma(x)))
    factor_count[0] = 0
    y = x.copy()
    y[3] *= 1.5
    model.evaluate(y)
    model.evaluate(y.copy())
    assert factor_count[0] == 1


def test_model_cache_never_returns_a_stale_result(mesh, cfg, factor_count):
    model = EITForwardModel(mesh, cfg)
    x = np.full(model.n, SIGMA_BG)
    F0 = model.evaluate(x)
    x[5] = 2.0 * SIGMA_BG  # the caller reuses its array
    F1 = model.evaluate(x)
    assert factor_count[0] == 2
    x[5] = 0.5 * model.floor  # below the floor after a cached call
    with pytest.raises(SingularSystem):
        model.evaluate(x)
    with pytest.raises(SingularSystem):
        model.jacobian(x)
    assert factor_count[0] == 2
    x[5] = 2.0 * SIGMA_BG
    assert not np.array_equal(F0, F1)
    assert np.array_equal(F1, forward(mesh, cfg, model.full_sigma(x)))


def test_run_nonlinear_factors_once_per_outer_plus_one(factor_count):
    m = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 200)
    cfg = default_config()
    model = EITForwardModel(m, cfg)
    truth = paint_disk_inclusion(m, SIGMA_BG, (0.04, 0.0), 0.04, 0.5 * SIGMA_BG)
    data, _ = synth_data(m, cfg, truth, noise_std=1e-4, seed=3)
    sites = [
        Site(np.eye(1, model.n, i), LaplacePositivityFactor(LAMBDA_DEFAULT, SIGMA_BG, SIGMA_FLOOR))
        for i in range(model.n)
    ]
    opts = NonlinearOptions(alpha=ALPHA_DEFAULT, max_outer=3, inner=EPOptions(max_sweeps=2), floor=SIGMA_FLOOR)
    factor_count[0] = 0
    res = run_nonlinear(model, data, sites, opts, np.full(model.n, SIGMA_BG))
    assert res.outer_iters >= 2
    assert factor_count[0] == res.outer_iters + 1


def test_model_cache_keys_on_the_bits_of_x(mesh, cfg, monkeypatch):
    calls = [0]
    orig = cem.solve_forward

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(cem, "solve_forward", counted)
    model = EITForwardModel(mesh, cfg)
    x = np.full(model.n, SIGMA_BG)
    F = model.evaluate(x)
    # an equal x hits, whatever holds it
    model.jacobian(x.copy())
    assert np.array_equal(model.evaluate(list(x)), F)
    assert calls[0] == 1
    # one ulp misses
    y = x.copy()
    y[7] = np.nextafter(y[7], np.inf)
    model.evaluate(y)
    assert calls[0] == 2
    model.evaluate(y)
    assert calls[0] == 2
    # an x of another shape never hits, not even with the cached bytes: it
    # raises as before
    for bad in (x[:-1], np.append(x, SIGMA_BG), x.reshape(2, -1), y.reshape(-1, 1)):
        with pytest.raises(ValueError):
            model.evaluate(bad)
    assert calls[0] == 2
    # and leaves the last solution cached
    assert np.array_equal(model.evaluate(y), forward(mesh, cfg, model.full_sigma(y)))
    assert calls[0] == 3
