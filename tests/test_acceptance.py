"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Criterion 8 is an empirical comparison: on failure it emits a
warning artifact instead of failing the suite.
"""

import warnings

import numpy as np
import pytest

from pademor import harness, modal, numerics, pade, poly
from pademor.hilbert import norm

from oracles import normalize, residual_norm

Z0 = 12 + 0.5j
RK = max(abs(9 - Z0), abs(15 - Z0))


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} {detail}".rstrip())
    return ok


def poly_from_roots(z0, roots):
    c = np.polynomial.polynomial.polyfromroots([r - z0 for r in roots])
    return normalize(poly.ShiftedPolynomial(z0, c))


def fast_pole_errors(model, z0, N, E_values, true_poles):
    out = {lam: [] for lam in true_poles}
    for E in E_values:
        ap = pade.build(model, pade.BuildParams(z0, E, N, E, "fast"))
        roots = pade.approximant_poles(ap)
        for lam in true_poles:
            out[lam].append(min(abs(r - lam) for r in roots))
    return out


def test_criterion_1_exact_recovery():
    z0 = 0.25 + 0.1j
    cases = [
        ([2.0], [1.0]),
        ([1.0, 2.0], [1.0, 0.5]),
        ([1.0, 2.0, 4.0], [1.0, 0.5, 0.25]),
    ]
    ok = True
    details = []
    for poles, norms in cases:
        model = modal.build_synthetic(poles, norms)
        P = len(poles)
        mind = min(abs(p - z0) for p in poles)
        for N in (P, P + 1):
            for M in (N - 1, N, N + 2):
                E = max(M, N)
                ap = pade.build(model, pade.BuildParams(z0, M, N, E, "fast"))
                scale = model.source_norm() / mind ** (E + 1)
                jval = ap.diagnostics.functional_value
                ok &= jval <= 1e-10 * scale
                roots = pade.approximant_poles(ap)
                pole_err = max(
                    min(abs(r - p) for r in roots) for p in poles
                )
                ok &= pole_err <= 1e-8
                sup = 0.0
                for z in np.linspace(-2.0, 5.0, 60):
                    if min(abs(z - p) for p in poles) < 0.1:
                        continue
                    val, qmag = pade.evaluate(ap, z)
                    if qmag < 1e-13:
                        continue
                    exact = modal.evaluate_exact(model, z)
                    sup = max(sup, norm(val - exact, model.weights))
                ok &= sup <= 1e-9
                details.append(f"P={P},N={N},M={M}: j={jval:.1e},sup={sup:.1e}")
    assert report(1, "exact recovery", ok)


def test_criterion_2_pole_rate(helmholtz):
    # The asymptotic regime sets in slowly (governed by the lambda_3/lambda_4
    # distance ratio), so the fit is restricted to the converged tail.
    E_values = list(range(2, 14))
    errs = fast_pole_errors(helmholtz, Z0, 2, E_values, [13.0, 10.0])
    window = (1e-12, 1e-5)
    f1 = harness.fit_decay_factor(E_values, errs[13.0], window=window)
    f2 = harness.fit_decay_factor(E_values, errs[10.0], window=window)
    ok1 = abs(f1 - 1 / 13) <= 0.20 / 13
    ok2 = abs(f2 - 17 / 65) <= 0.25 * 17 / 65
    assert report(
        2,
        "pole rate",
        ok1 and ok2,
        f"lambda1: fitted {f1:.5f} vs 1/13 = {1 / 13:.5f} (+-20%); "
        f"lambda2: fitted {f2:.5f} vs 17/65 = {17 / 65:.5f} (+-25%)",
    )


def test_criterion_3_approximant_rate(helmholtz):
    M_values = list(range(3, 9))
    ok = True
    details = []
    for z, target in ((9.0, np.sqrt(9.25 / 16.25)), (11.0, np.sqrt(1.25 / 16.25))):
        errors = []
        for M in M_values:
            ap = pade.build(helmholtz, pade.BuildParams(Z0, M, 2, M, "fast"))
            val, _ = pade.evaluate(ap, z)
            exact = modal.evaluate_exact(helmholtz, z)
            errors.append(norm(val - exact, helmholtz.weights))
        fitted = harness.fit_decay_factor(M_values, errors, window=(1e-12, 1e3))
        ok &= abs(fitted - target) <= 0.20 * target
        details.append(f"z={z:g}: fitted {fitted:.5f} vs {target:.5f}")
    assert report(3, "approximant rate", ok, "; ".join(details) + " (+-20%)")


def test_criterion_4_residual_bound(helmholtz):
    poles = modal.pole_list(helmholtz, Z0)
    lam = np.array([p[0] for p in poles])
    ok = True
    worst_ratio = 0.0
    for N in (1, 2, 3):
        lam_next = poles[N][0]
        Cp = helmholtz.source_norm() * np.prod(
            [1 + abs(lam_next - Z0) / abs(poles[a][0] - Z0) for a in range(N)]
        )
        for M in (N - 1, N, N + 3):
            E = max(M, N)
            ap = pade.build(helmholtz, pade.BuildParams(Z0, M, N, E, "fast"))
            grid = [
                z
                for z in np.linspace(9.0, 15.0, 75)
                if np.min(np.abs(lam - z)) >= 0.2
            ][:50]
            for z in grid:
                H = residual_norm(helmholtz, ap, z)
                d = float(np.min(np.abs(lam - z)))
                factor = (abs(z - Z0) / abs(lam_next - Z0)) ** (E + 1)
                if M >= N:
                    bound = Cp / d * factor
                else:
                    bound = Cp * (1 / d + 1 / abs(z - Z0)) * factor
                worst_ratio = max(worst_ratio, H / bound)
                ok &= H <= bound * (1 + 1e-6)
    assert report(4, "residual bound", ok, f"worst residual/bound = {worst_ratio:.4f}")


def test_criterion_5_interpolation_bounds(rng):
    ok = True
    for _ in range(1000):
        N = int(rng.integers(1, 7))
        z0 = complex(rng.normal(), rng.normal())
        roots = z0 + 5 * rng.uniform(0.01, 1, size=N) * np.exp(
            2j * np.pi * rng.uniform(size=N)
        )
        q = poly_from_roots(z0, roots)
        z = complex(rng.normal(scale=4), rng.normal(scale=4))
        qz = abs(poly.evaluate(q, z))
        lower = np.prod([abs(r - z) / (1 + abs(r - z0)) for r in roots])
        ok &= qz >= lower - 1e-10
        if min(abs(r - z0) for r in roots) > 1e-6:
            upper = np.prod([abs(r - z) / abs(r - z0) for r in roots])
            ok &= qz <= upper + 1e-10
    assert report(5, "denominator bounds", ok, "1000 randomized polynomials")


def _weighted_null_spaces(taylor, N, E, w):
    G = pade.gramian(taylor, N, E, w)
    vals, vecs = numerics.hermitian_eigensystem(G)
    U1 = vecs[:, vals <= 1e-10 * max(np.linalg.norm(G), 1e-300)]
    A = pade._taylor_window(taylor, N, E)
    s_full = np.zeros(N + 1)
    _, s, vh = np.linalg.svd(np.sqrt(w.weights)[:, None] * A)
    s_full[: s.size] = s
    U2 = vh.conj().T[:, s_full <= 1e-8 * max(s_full[0], 1e-300)]
    return U1, U2


def test_criterion_6_path_equivalence(rng):
    ok = True
    plain = degenerate = 0
    while plain < 100 or degenerate < 10:
        P = int(rng.integers(2, 5))
        poles = rng.uniform(1, 6, size=P) + 1j * rng.uniform(-1, 1, size=P)
        if np.min(np.abs(np.subtract.outer(poles, poles)) + 10 * np.eye(P)) < 0.2:
            continue
        model = modal.build_synthetic(list(poles), list(rng.uniform(0.5, 2, size=P)))
        degenerate_wanted = plain >= 100
        N = int(rng.integers(P, P + 2)) if degenerate_wanted else int(rng.integers(1, P))
        E = N + int(rng.integers(0, 4))
        taylor = modal.taylor_coefficients(model, 0.0, E)
        g_den, g_diag = pade.denominator_fast_gramian(taylor, N, E, model.weights)
        q_den, q_diag = pade.denominator_fast_qr(taylor, N, E, model.weights)
        if g_diag.degenerate or q_diag.degenerate:
            U1, U2 = _weighted_null_spaces(taylor, N, E, model.weights)
            if U1.shape[1] and U1.shape[1] == U2.shape[1]:
                sv = np.linalg.svd(U1.conj().T @ U2, compute_uv=False)
                angle = float(np.arccos(np.clip(np.min(sv), 0.0, 1.0)))
                ok &= angle <= 1e-6
            degenerate += 1
        else:
            ok &= bool(np.allclose(g_den.coeffs, q_den.coeffs, atol=1e-8))
            plain += 1
    assert report(
        6, "path equivalence", ok, f"{plain} plain + {degenerate} degenerate configs"
    )


def test_criterion_7_dual_functional(rng):
    ok = True
    worst = 0.0
    for _ in range(200):
        P = int(rng.integers(1, 5))
        poles = rng.uniform(1, 6, size=P) + 1j * rng.uniform(-1, 1, size=P)
        if np.min(np.abs(np.subtract.outer(poles, poles)) + 10 * np.eye(P)) < 0.1:
            continue
        model = modal.build_synthetic(list(poles), list(rng.uniform(0.5, 2, size=P)))
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        N = int(rng.integers(0, 4))
        E = N + int(rng.integers(0, 4))
        c = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        Q = normalize(poly.ShiftedPolynomial(z0, c))
        taylor = modal.taylor_coefficients(model, z0, E)
        a = pade.functional_value(Q, taylor, E, w=model.weights)
        b = pade.functional_value(Q, model, E)
        rel = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, rel)
        ok &= rel <= 1e-10
    assert report(7, "dual functional", ok, f"worst relative gap {worst:.2e}")


# soft criterion: its warning records the outcome and must not fail the suite
@pytest.mark.filterwarnings("default:fast-vs-standard comparison exceeded")
def test_criterion_8_fast_vs_standard(helmholtz, tmp_path):
    medians = {}
    grid = np.linspace(9.0, 15.0, 101)
    for E in range(4, 9):
        fast = pade.build(helmholtz, pade.BuildParams(Z0, E, 2, E, "fast"))
        std = pade.build(
            helmholtz, pade.BuildParams(Z0, E - 2, 2, E, "standard", RK)
        )
        ratios = []
        for z in grid:
            exact = modal.evaluate_exact(helmholtz, z)
            vf, _ = pade.evaluate(fast, z)
            vs, _ = pade.evaluate(std, z)
            ef = norm(vf - exact, helmholtz.weights)
            es = norm(vs - exact, helmholtz.weights)
            if es > 0:
                ratios.append(ef / es)
        medians[E] = float(np.median(ratios))
    ok = all(m <= 1.0 for m in medians.values())
    detail = ", ".join(f"E={E}: {m:.3f}" for E, m in medians.items())
    if not ok:
        # soft criterion: record the outcome instead of failing the suite
        artifact = tmp_path / "fast_vs_standard_warning.txt"
        artifact.write_text(detail + "\n")
        warnings.warn(f"fast-vs-standard comparison exceeded 1.0: {detail}")
    report(8, "fast vs standard (soft)", ok, f"median ratios {detail}")


def test_criterion_9_rho_invariance(helmholtz):
    rhos = (0.1 * RK, RK, 10 * RK)
    ok = True
    # single weighted block: the matrix only scales with rho, so the argmin
    # is invariant and the coefficients must match tightly
    taylor = modal.taylor_coefficients(helmholtz, Z0, 5)
    dens = []
    for rho in rhos:
        den, diag = pade.denominator_standard(taylor, 4, 1, 5, rho, helmholtz.weights)
        if not diag.degenerate:
            dens.append(den.coeffs)
    single = max(float(np.max(np.abs(d - dens[0]))) for d in dens)
    ok &= single <= 1e-6
    # multiple blocks at a converged configuration: empirical insensitivity
    taylor = modal.taylor_coefficients(helmholtz, Z0, 10)
    errs = []
    multi = []
    base = None
    for rho in rhos:
        den, _ = pade.denominator_standard(taylor, 8, 2, 10, rho, helmholtz.weights)
        roots = poly.roots(den)
        # the dominant (worst-approximated) pole error gauges the accuracy
        errs.append(max(min(abs(r - lam) for r in roots) for lam in (13.0, 10.0)))
        if base is None:
            base = den.coeffs
        multi.append(float(np.max(np.abs(den.coeffs - base))))
    ok &= max(errs) < 10 * min(errs)
    ok &= max(multi) <= 1e-4
    assert report(
        9,
        "rho invariance",
        ok,
        f"single-block max coeff diff {single:.2e}; "
        f"multi-block max coeff diff {max(multi):.2e}, "
        f"pole-error spread {max(errs) / min(errs):.2f}x",
    )


def test_criterion_10_convergence_in_measure():
    """Convergence in measure on a complex box around K.  Setting: the
    196-mode Helmholtz model (max_index 14), z0 = 12 + 0.5i, a 121 x 41 grid
    on [9, 15] x [-1, 1] without its points within 1e-2 of a retained pole
    (2 of 4,961), and eps = 1e-3 on the relative V-norm error.  Along
    M = N = E = 4, 6, 8, 10 the area fraction where the fast approximant's
    error exceeds eps must fall strictly, to at most 0.01 at N = 10
    (measured: 0.80, 0.39, 0.0028, 0).  The Taylor polynomial of the same
    degrees also falls strictly, from 0.97 to 0.90, but does not get there.
    A point where the approximant is not finite counts as above eps.  The
    standard variant's fractions (E = 2N, rho = 3.5) are only reported:
    its Gramian eigensolve loses them from N = 6 on."""
    model = modal.build_rectangle_helmholtz(max_index=14)
    x, y = np.meshgrid(np.linspace(9, 15, 121), np.linspace(-1, 1, 41))
    points = (x + 1j * y).ravel()
    exact, dist = modal.evaluate_exact_grid(model, points)
    keep = dist >= 1e-2
    points, exact = points[keep], exact[keep]
    scale = norm(exact, model.weights)
    fractions = {"fast": [], "standard": []}
    for N in (4, 6, 8, 10):
        for variant, params in (
            ("fast", pade.BuildParams(Z0, N, N, N, "fast")),
            ("standard", pade.BuildParams(Z0, N, N, 2 * N, "standard", 3.5)),
        ):
            values, _ = pade.evaluate(pade.build(model, params), points)
            rel = norm(values - exact, model.weights) / scale
            fractions[variant].append(float(np.mean(~(rel <= 1e-3))))
    fast = fractions["fast"]
    ok = keep.sum() == 4959 and all(a > b for a, b in zip(fast, fast[1:]))
    ok &= fast[-1] <= 0.01
    detail = "; ".join(f"{variant} " + ", ".join(f"{f:.4f}" for f in fr)
                       for variant, fr in fractions.items())
    assert report(10, "convergence in measure", ok, f"N = 4, 6, 8, 10: {detail}")
