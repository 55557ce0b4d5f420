"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are
fixed here; the h^4 truncation term in the transform-validity bound is
scaled by the probe's sup-norm, since stencil and quadrature errors are
proportional to high derivatives of the fields involved.
"""

import time

import numpy as np

from galab.cli import main as cli_main
from galab.conformal import HolomorphicChart, check_commutativity
from galab.grid import Field, GridSpec, dz, residual
from galab.moutard import (SeedSet, compose_simple, invert_simple,
                           moutard_rank_n, moutard_simple, transformed_potential)
from galab.potential import Potential, omega
from galab.series import (FunctionOnInterval, PoleProfile, pole_order_check,
                          meromorphic_certify, series_residual, solve_recursion)
from galab.scenarios import bundled_scenarios, load_scenario, run_scenario
from galab.singularity import (SingularFieldModel, remove_pole,
                               synthesize_seeds, synthesize_singular_u)

from conftest import make_grid, ones, sample, zeros

IV = (1.0, 2.0)


def poly(*coeffs):
    return FunctionOnInterval.from_poly(list(coeffs), IV)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def orders_of(errors, floor=5e-13):
    usable = [e for e in errors if e > floor]
    if len(usable) < 2:
        return None
    return [float(np.log2(a / b)) for a, b in zip(usable, usable[1:])]


def transform_corpus():
    """Polynomial seed pairs over strips avoiding potential zeros."""
    return [
        ("unit seeds, quadratic probe", (0.0, 1.0), lambda z: np.ones_like(z),
         lambda z: np.ones_like(z), 2j, lambda z: z ** 2),
        ("unit seeds, exponential probe", (0.0, 1.0), lambda z: np.ones_like(z),
         lambda z: np.ones_like(z), 2j, lambda z: np.exp(z / 2)),
        ("linear seed, quadratic probe", (1.0, 2.0), lambda z: z,
         lambda z: np.ones_like(z), 2j, lambda z: z ** 2),
    ]


def test_criterion_1_transform_validity():
    worst_c = 0.0
    min_order = np.inf
    for label, xspan, f_fn, fp_fn, c_ff, probe in transform_corpus():
        start = time.monotonic()
        errors = []
        for n in (64, 128, 256):
            g = make_grid(n, n, x=xspan)
            u, f1, f1p = zeros(g), sample(g, f_fn), sample(g, fp_fn)
            om_ff = omega(f1, f1p, (0, 0), c_ff)
            psi = sample(g, probe)
            om_pf = omega(psi, f1p, (0, 0), 0.0)
            result = moutard_simple(u, f1, f1p, om_ff)
            before = residual(u, psi)
            after = residual(result.u_tilde, result.map_psi(psi, om_pf))
            h4 = max(g.hx, g.hy) ** 4 * max(1.0, psi.max_abs())
            worst_c = max(worst_c, after / (before + h4))
            assert after <= 10 * (before + h4), (label, n, after, before, h4)
            errors.append(after)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, (label, elapsed)
        measured = orders_of(errors)
        if measured is not None:
            min_order = min(min_order, min(measured))
            assert min(measured) >= 3.5, (label, errors, measured)
    report(1, True, f"transform validity: C <= {worst_c:.2f} (limit 10), "
                    f"min order {min_order:.2f} over 64/128/256 grids")


def test_criterion_2_transformed_potential():
    defects, re_max = [], 0.0
    for n in (64, 128, 256):
        g = make_grid(n, n)
        u, f1 = zeros(g), ones(g)
        psi = sample(g, lambda z: np.exp(z / 2))
        psi_plus = sample(g, lambda z: z)
        om_ff = omega(f1, f1, (0, 0), 2j)
        om_pf = omega(psi, f1, (0, 0), 0.0)
        om_fp = omega(f1, psi_plus, (0, 0), 0.0)
        om_pp = omega(psi, psi_plus, (0, 0), 0.0)
        om_t = transformed_potential(om_pp, om_pf, om_fp, om_ff)
        result = moutard_simple(u, f1, f1, om_ff)
        psi_t = result.map_psi(psi, om_pf)
        psi_plus_t = result.map_psi_plus(psi_plus, om_fp)
        defect = np.max(np.abs(dz(Field(g, om_t.values)).values
                               - psi_t.values * psi_plus_t.values))
        defects.append(float(defect))
        re_max = max(re_max, float(np.max(np.abs(om_t.values.real))))
    measured = orders_of(defects)
    ok = re_max <= 1e-9 and (measured is None or min(measured) >= 3.5)
    report(2, ok, f"transformed potential: defects {defects[-1]:.2e} at 256^2, "
                  f"orders {measured}, max Re {re_max:.2e}")


def _quadruples():
    g1 = make_grid(64, 64)
    e2 = lambda z: np.exp(z / 2)
    q1 = (g1, lambda z: np.ones_like(z), lambda z: np.ones_like(z),
          lambda z: z, lambda z: z,
          (2j * g1.y, 2j * g1.x * g1.y, 2j * g1.x * g1.y,
           2j * (g1.x ** 2 * g1.y - g1.y ** 3 / 3)))
    q2 = (g1, lambda z: np.ones_like(z), lambda z: np.ones_like(z), e2, e2,
          (2j * g1.y, 4j * np.exp(g1.x / 2) * np.sin(g1.y / 2),
           4j * np.exp(g1.x / 2) * np.sin(g1.y / 2),
           2j * np.exp(g1.x) * np.sin(g1.y)))
    g3 = make_grid(64, 64, x=(1.0, 2.0))
    q3 = (g3, lambda z: z, lambda z: np.ones_like(z),
          lambda z: np.ones_like(z), lambda z: z,
          (2j * g3.x * g3.y, 2j * g3.y,
           2j * (g3.x ** 2 * g3.y - g3.y ** 3 / 3), 2j * g3.x * g3.y))
    return [q1, q2, q3]


def test_criterion_3_composition():
    worst = 0.0
    for g, f1_fn, f1p_fn, f2_fn, f2p_fn, oms in _quadruples():
        u = zeros(g)
        f1, f1p = sample(g, f1_fn), sample(g, f1p_fn)
        f2, f2p = sample(g, f2_fn), sample(g, f2p_fn)
        om11, om21, om12, om22 = (Potential.from_values(g, v) for v in oms)
        seedset = SeedSet.build(u, [(f1, f1p), (f2, f2p)],
                                [[om11, om21], [om12, om22]])
        rank2 = moutard_rank_n(seedset)
        comp = compose_simple(u, f1, f1p, f2, f2p, om11, om21, om12, om22)
        psi = sample(g, lambda z: z ** 2 + 0.5)
        om_p1 = omega(psi, f1p, (0, 0), 0.0)
        om_p2 = omega(psi, f2p, (0, 0), 0.0)
        pairs = [(rank2.u_tilde, comp.u_tilde),
                 (rank2.map_psi(psi, [om_p1, om_p2]),
                  comp.map_psi(psi, [om_p1, om_p2]))]
        for a, b in pairs:
            scale = max(a.max_abs(), 1.0)
            dev = np.max(np.abs((a.values - b.values)[g.mask])) / scale
            worst = max(worst, float(dev))
            assert dev <= 1e-8
    report(3, True, f"composition equals rank-2 on 3 quadruples, "
                    f"worst relative deviation {worst:.2e} (limit 1e-8)")


def test_criterion_4_inversion():
    # closed-form worked case, checked symbolically
    g = make_grid(96, 96)
    u, f1 = zeros(g), ones(g)
    om_ff = Potential.from_values(g, 2j * g.y)
    om_pf = Potential.from_values(g, 2j * g.x * g.y)
    m1 = moutard_simple(u, f1, f1, om_ff)
    psi = sample(g, lambda z: z)
    psi_t = m1.map_psi(psi, om_pf)
    sym_forward = float(np.max(np.abs(psi_t.values - 1j * g.y)))
    inv = invert_simple(m1, f1, f1, om_ff)
    sym_back = float(np.max(np.abs(inv.map_psi(psi_t, om_pf).values - g.z)))
    assert sym_forward <= 1e-14 and sym_back <= 1e-14

    # full round trip with quadrature-built potentials
    om_ff_q = omega(f1, f1, (0, 0), 2j)
    psi_e = sample(g, lambda z: np.exp(z / 2))
    psi_plus = sample(g, lambda z: z ** 2 + 1)
    om_pf_q = omega(psi_e, f1, (0, 0), 0.0)
    om_fp_q = omega(f1, psi_plus, (0, 0), 0.0)
    m1q = moutard_simple(u, f1, f1, om_ff_q)
    invq = invert_simple(m1q, f1, f1, om_ff_q)
    worst = 0.0
    for got, want in (
            (invq.map_psi(m1q.map_psi(psi_e, om_pf_q), om_pf_q), psi_e),
            (invq.map_psi_plus(m1q.map_psi_plus(psi_plus, om_fp_q), om_fp_q),
             psi_plus),
            (invq.u_tilde, u)):
        scale = max(want.max_abs(), 1.0)
        worst = max(worst, float(np.max(np.abs(got.values - want.values))) / scale)
    assert worst <= 1e-10
    report(4, True, f"inversion: worked case {max(sym_forward, sym_back):.1e} "
                    f"(limit 1e-14), round trip {worst:.1e} (limit 1e-10)")


def test_criterion_5_certifier():
    canonical = PoleProfile(poly(0.0), {-1: poly(-0.5)})
    phase = PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), 1: poly(1j)})
    assert pole_order_check(canonical, 1).ok and pole_order_check(phase, 1).ok
    assert meromorphic_certify(canonical).ok
    assert meromorphic_certify(phase).ok

    flat_r0 = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(0.1)})
    res = meromorphic_certify(flat_r0)
    assert not res.ok and res.condition == "Re r0 != 0"

    # varying violations localize the worst node to one check cell
    cell = (IV[1] - IV[0]) / 200
    peaked_r0 = PoleProfile(poly(0.0), {-1: poly(-0.5),
                                        0: poly(0.1, -0.2, 0.1)})
    res_r0 = meromorphic_certify(peaked_r0)
    assert not res_r0.ok and abs(res_r0.worst_y - 2.0) <= cell

    drift_r1 = PoleProfile(poly(0.0, 0.0, 1.0),
                           {-1: poly(-0.5), 1: poly(0.95j, 0.05j)})
    res_r1 = meromorphic_certify(drift_r1)
    assert not res_r1.ok and res_r1.condition == "Im r1 != phi''/2"
    assert abs(res_r1.worst_y - 2.0) <= cell

    # sampled mode with an interior peak
    n = 101
    ys = np.linspace(*IV, n)
    k_peak = 40
    bump = np.zeros(n)
    bump[k_peak] = 0.05
    sampled = PoleProfile(
        FunctionOnInterval.from_samples(np.zeros(n), IV),
        {-1: FunctionOnInterval.from_samples(np.full(n, -0.5), IV),
         0: FunctionOnInterval.from_samples(bump, IV)})
    res_s = meromorphic_certify(sampled)
    assert not res_s.ok
    assert abs(res_s.worst_y - ys[k_peak]) <= (IV[1] - IV[0]) / (n - 1)
    report(5, True, "certifier accepts canonical and phase profiles, rejects "
                    "Re r0 and Im r1 violations with one-cell localization")


def test_criterion_6_recursion():
    canonical = PoleProfile(poly(0.0), {-1: poly(-0.5)})
    series = solve_recursion(canonical, poly(1.0), poly(0.0), 8)
    flat = max(series.beta_fn(j).max_abs() for j in range(0, 9))
    assert flat <= 1e-14

    c0, r1 = 0.7, 0.3
    prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(1j * c0),
                                   1: poly(r1)})
    s2 = solve_recursion(prof, poly(1.0), poly(0.0), 8)
    assert (s2.beta_fn(0) - poly(-2j * c0)).max_abs() <= 1e-14
    assert np.max(np.abs(s2.beta_fn(1).sample().real
                         - (r1 - 2 * c0 ** 2))) <= 1e-14

    defects = series_residual(prof, s2)
    assert max(defects) <= 1e-12

    sa = solve_recursion(prof, poly(1.0, 0.5), poly(0.25), 8)
    sb = solve_recursion(prof, poly(2.0, 1.0), poly(0.5), 8)
    lin = max((sb.beta_fn(j) - 2.0 * sa.beta_fn(j)).max_abs()
              for j in range(-1, 9))
    assert lin <= 1e-12
    report(6, True, f"recursion: canonical flat to {flat:.1e}, hand values "
                    f"exact, defects {max(defects):.1e} through K=8, "
                    f"linearity {lin:.1e}")


def _removal_case(profile, b, bp, grid, order=8):
    u_star, _ = synthesize_singular_u(profile, grid)
    f, fp = synthesize_seeds(profile, b, bp, grid, order)
    return u_star, f, fp


def test_criterion_7_pole_removal():
    start = time.monotonic()
    eps = 0.1
    grid = GridSpec(-eps, eps, IV[0], IV[1], 480, 61, excluded_band=eps / 50)

    canonical = PoleProfile(poly(0.0), {-1: poly(-0.5)})
    u_star, f, fp = _removal_case(canonical, poly(1.0), poly(1.0), grid)
    flag = remove_pole(u_star, f, fp)
    sup_full = float(np.max(np.abs(flag.u_tilde.values[grid.mask])))
    assert sup_full <= 1e-10, sup_full
    assert flag.verdict == "pass"

    generics = [
        PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), 1: poly(1j)}),
        PoleProfile(poly(0.0, 1 / 3, 0.5),
                    {-1: poly(-0.5), 0: poly(0.3j),
                     1: poly(0.2 + 0.5j), 2: poly(0.1 - 0.05j)}),
    ]
    leadings = [(poly(1.0, 0.0, 0.1), poly(1.0, 0.05)),
                (poly(2.0, 0.2), poly(1.5, -0.1))]
    worst_ratio = 0.0
    for profile, (b, bp) in zip(generics, leadings):
        u_star, f, fp = _removal_case(profile, b, bp, grid)
        res = remove_pole(u_star, f, fp)
        assert res.passed, res.verdict
        for c2, c1, c0 in zip(res.contour.c_minus2, res.contour.c_minus1,
                              res.contour.c0):
            bound = 1e-6 * c0 + 1e-8
            worst_ratio = max(worst_ratio, c1 / bound, c2 / bound)
            assert max(c1, c2) <= bound

    # sabotage: order-0 coefficient of the direct seed shifted by one
    profile = generics[0]
    u_star, f, fp = _removal_case(profile, *leadings[0], grid)
    phase = np.exp(1j * profile.phi.values_on(grid.ys).real)
    sab = Field(grid, f.smooth_remainder.values + phase[None, :])
    f_sab = SingularFieldModel(grid, f.leading, f.phi, sab, f.series)
    res_sab = remove_pole(u_star, f_sab, fp)
    assert not res_sab.passed

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    report(7, True, f"pole removal: flagship sup {sup_full:.1e} (limit 1e-10), "
                    f"generic pole coefficients at {worst_ratio:.3f} of bound, "
                    f"sabotage detected, {elapsed:.1f}s (limit 30)")


def test_criterion_8_conformal_commutativity():
    g = make_grid(64, 64, x=(-0.5, 0.5))
    args = (lambda zv: np.zeros_like(zv), lambda zv: np.ones_like(zv),
            lambda zv: np.ones_like(zv), lambda zv: np.exp(zv / 4))

    identity = HolomorphicChart(lambda t: t, lambda t: np.ones_like(t), lambda zv: zv, g)
    res_id = check_commutativity(identity, *args, omegas=(2j, 0j))
    assert res_id.u_deviation <= 1e-12 and res_id.psi_deviation <= 1e-12

    closed = dict(omegas=(
        lambda zv: zv - np.conj(zv),
        lambda zv: 4 * np.exp(zv / 4) - np.conj(4 * np.exp(zv / 4))))
    scale_chart = HolomorphicChart(lambda t: 2 * t,
                                   lambda t: 2 * np.ones_like(t),
                                   lambda zv: zv / 2, g)
    res_scale = check_commutativity(scale_chart, *args, **closed)
    w = np.exp(0.5j)
    rot_chart = HolomorphicChart(lambda t: w * t,
                                 lambda t: w * np.ones_like(t),
                                 lambda zv: zv / w, g)
    res_rot = check_commutativity(rot_chart, *args, **closed)
    for res in (res_scale, res_rot):
        assert res.u_deviation <= 1e-8 and res.psi_deviation <= 1e-8
    worst = [max(res.u_deviation, res.psi_deviation) for res in (res_id, res_scale, res_rot)]
    report(8, True, f"commutativity: identity {worst[0]:.1e} (limit 1e-12), "
                    f"scaling {worst[1]:.1e}, rotation {worst[2]:.1e} (limit 1e-8)")


def test_criterion_9_cli_determinism(tmp_path):
    names = bundled_scenarios()
    assert len(names) >= 10
    for name in names:
        scn = load_scenario(name)
        code_a, path_a = run_scenario(scn, tmp_path / "a")
        code_b, path_b = run_scenario(scn, tmp_path / "b")
        assert code_a == 0 and code_b == 0, name
        assert path_a.read_bytes() == path_b.read_bytes(), name

    # exit code contract: 1 for configuration errors, 2 for failures
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nname = bad\npipeline = transform\n"
                   "[grid]\nx_min = 0.0\nx_max = 1.0\ny_min = 1.0\n"
                   "y_max = 2.0\nnx = 16\nny = 16\n"
                   "[expressions]\nu = 0\npsi = z\n")
    assert cli_main(["transform", "--scenario", str(bad),
                     "--out", str(tmp_path)]) == 1
    assert cli_main(["residual", "--scenario", "residual-holomorphic",
                     "--out", str(tmp_path), "--tol", "1e-30"]) == 2
    report(9, True, f"CLI: {len(names)} bundled scenarios byte-identical "
                    f"across runs, exit codes 0/1/2 as specified")
