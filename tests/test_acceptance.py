"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible in the normal test log) and
asserts the same condition, so the log doubles as an acceptance report.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from branchpde.bernstein import (ScaledStable, integrability_table,
                                 neg_moment_numeric, neg_moment_stable)
from branchpde.cli import main
from branchpde.engine import estimate, sample_subordinated_increment
from branchpde.existence import check_theorem2
from branchpde.model import builtin_model
from branchpde.sampling import RngStream, sample_stable_subordinator
from branchpde.specfun import (gamma_fn, gamma_reflected, hyp2f1, phi_bump,
                               psi_getoor)

N_BIG = 1_000_000


def _check(report_line, num, ok, detail):
    report_line(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bump_exact(t, x1, k, alpha=1.5):
    return math.exp(-t) * max(0.0, 1.0 - x1 * x1) ** (k + alpha / 2.0)


GRID11 = np.linspace(-1.2, 1.2, 11)


def test_criterion_01_manufactured_solution(report_line):
    """Monte Carlo sweep reproduces u = e^(-t) (1 - x^2)_+^(k + 3/4)."""
    t, T, alpha = 0.9, 1.0, 1.5
    failures = []
    for di, d in enumerate((1, 2, 10)):
        for k in (0, 1):
            model = builtin_model("nld", d=d, alpha=alpha, k=k, T=T)
            hits = 0
            worst_se = 0.0
            for pi, x1 in enumerate(GRID11):
                x = np.zeros(d)
                x[0] = x1
                res = estimate(model, t, x, 0, T, n_trees=N_BIG,
                               master_seed=1000 * di + 100 * (k + 1) + pi)
                exact = _bump_exact(t, x1, k, alpha)
                if abs(res.mean - exact) <= 3.0 * res.stderr:
                    hits += 1
                worst_se = max(worst_se, res.stderr)
            if hits < 10 or worst_se >= 0.02:
                failures.append((d, k, hits, worst_se))
    _check(report_line, 1, not failures,
           "nld d in {1,2,10}, k in {0,1}: >= 10/11 grid points within "
           f"3 stderr and stderr < 0.02 (failures: {failures or 'none'})")


def test_criterion_02_gradient_model(report_line):
    """Gradient-bearing sweep plus mark-1 derivative vs finite difference."""
    t, T, alpha, d = 0.9, 1.0, 1.5, 2
    failures = []
    for k in (1, 2):
        model = builtin_model("gradd", d=d, alpha=alpha, k=k, T=T)
        hits = 0
        for pi, x1 in enumerate(GRID11):
            res = estimate(model, t, np.array([x1, 0.0]), 0, T, n_trees=N_BIG,
                           master_seed=2000 + 100 * k + pi)
            if abs(res.mean - _bump_exact(t, x1, k, alpha)) <= 3.0 * res.stderr:
                hits += 1
        if hits < 10:
            failures.append((k, "sweep", hits))

        h = 0.05
        grad = estimate(model, t, np.array([0.5, 0.0]), 1, T, n_trees=N_BIG,
                        master_seed=2300 + k)
        hi = estimate(model, t, np.array([0.5 + h, 0.0]), 0, T, n_trees=N_BIG,
                      master_seed=2400 + k)
        lo = estimate(model, t, np.array([0.5 - h, 0.0]), 0, T, n_trees=N_BIG,
                      master_seed=2500 + k)
        fd = (hi.mean - lo.mean) / (2.0 * h)
        sigma = math.sqrt(grad.stderr ** 2
                          + (hi.stderr ** 2 + lo.stderr ** 2) / (2.0 * h) ** 2)
        if abs(grad.mean - fd) > 3.0 * sigma:
            failures.append((k, "derivative", grad.mean, fd))
    _check(report_line, 2, not failures,
           "gradd d=2, k in {1,2}: sweep within 3 stderr at >= 10/11 points "
           "and mark-1 derivative matches the central difference "
           f"(failures: {failures or 'none'})")


def test_criterion_03_linear_feynman_kac(report_line):
    """f = u with phi = 1 gives u(t) = e^(T - t) for every alpha."""
    failures = []
    for ai, alpha in enumerate((1.2, 1.5, 1.8)):
        for hi, horizon in enumerate((0.25, 0.5)):
            model = builtin_model("linear-test", alpha=alpha, c=1.0)
            res = estimate(model, 1.0 - horizon, np.zeros(1), 0, 1.0,
                           n_trees=100_000, master_seed=30 + 10 * ai + hi)
            if abs(res.mean - math.exp(horizon)) > 3.0 * res.stderr:
                failures.append((alpha, horizon, res.mean))
    _check(report_line, 3, not failures,
           "linear Feynman-Kac within 3 stderr for alpha in {1.2, 1.5, 1.8}, "
           f"T-t in {{0.25, 0.5}} (failures: {failures or 'none'})")


def test_criterion_04_zero_mean_weight(report_line):
    """The derivative weight W = dx_theta / ds has mean zero."""
    rng = RngStream(44, 0)
    ds, dx = sample_subordinated_increment(2, 1.5, 1.0, 0.7, rng, size=N_BIG)
    w = dx[:, 0] / ds
    se = w.std(ddof=1) / math.sqrt(w.size)
    ok = abs(w.mean()) <= 4.0 * se
    _check(report_line, 4, ok,
           f"E[W] = {w.mean():.2e} within 4 stderr ({se:.2e}) of 0 "
           f"over 10^6 samples")


def test_criterion_05_cms_laplace_transform(report_line):
    """CMS samples match E[exp(-lam S_t)] = exp(-t (2 lam)^(alpha/2))."""
    failures = []
    for ti, t in enumerate((0.5, 1.0)):
        for ai, alpha in enumerate((1.2, 1.5, 1.8)):
            s = sample_stable_subordinator(alpha, t, RngStream(55, 10 * ti + ai),
                                           size=N_BIG)
            for lam in (0.5, 1.0, 2.0):
                vals = np.exp(-lam * s)
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                exact = math.exp(-t * (2.0 * lam) ** (alpha / 2.0))
                if abs(vals.mean() - exact) > 4.0 * se:
                    failures.append((alpha, lam, t))
        exact2 = sample_stable_subordinator(2.0, t, RngStream(55, 99), size=100)
        if not np.all(exact2 == 2.0 * t):
            failures.append(("alpha=2", t))
    _check(report_line, 5, not failures,
           "Laplace transform within 4 stderr on the 9 (alpha, lambda) "
           "combinations at t in {0.5, 1}; alpha = 2 gives exactly 2t "
           f"(failures: {failures or 'none'})")


def test_criterion_06_negative_moments(report_line):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(1.1, 1.9)
        t = rng.uniform(0.1, 5.0)
        closed = neg_moment_stable(p, alpha, t)
        numeric = neg_moment_numeric(ScaledStable(alpha=alpha), p, t)
        worst = max(worst, abs(numeric - closed) / closed)
    _check(report_line, 6, worst < 1e-7,
           f"negative moments: worst relative error {worst:.2e} < 1e-7 "
           "on 20 random (p, alpha, t)")


def _psi_quadrature_oracle(k, alpha, x):
    """P.V. quadrature for -(-Delta)^(alpha/2) of the bump in d = 2."""
    import warnings
    c = (2.0 ** alpha * gamma_fn((2 + alpha) / 2.0)
         / (math.pi * abs(gamma_reflected(-alpha / 2.0))))
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    phi_x = phi_bump(k, alpha, x)

    def integrand(r):
        ring = float(np.mean(phi_bump(k, alpha, x[None, :] + r * dirs)))
        return (ring - phi_x) * r ** (-1.0 - alpha) * 2.0 * math.pi

    r_max = 1.0 + float(np.linalg.norm(x)) + 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(integrand, 0.0, 0.1, epsabs=1e-10, limit=300)
        mid, _ = integrate.quad(integrand, 0.1, r_max, epsabs=1e-10, limit=300)
    tail = -phi_x * 2.0 * math.pi * r_max ** (-alpha) / alpha
    return -c * (head + mid + tail)


def test_criterion_07_special_functions(report_line):
    checks = []
    for z in (0.25, 0.5, -0.5, 0.93):
        checks.append(abs(hyp2f1(1.0, 1.0, 2.0, z)
                          - (-math.log1p(-z) / z)) <= 1e-10)
    gauss = (gamma_fn(2.0) * gamma_fn(1.0)
             / (gamma_fn(1.5) * gamma_fn(1.5)))
    checks.append(abs(hyp2f1(0.5, 0.5, 2.0, 1.0) - gauss) <= 1e-10)
    checks.append(abs(psi_getoor(0, 1.0, 1, np.zeros(1)) - 1.0) <= 1e-12)
    rng = np.random.default_rng(7)
    base = psi_getoor(0, 1.0, 1, np.zeros(1))
    checks.append(all(
        abs(psi_getoor(0, 1.0, 1, rng.uniform(-0.99, 0.99, 1)) - base)
        <= 1e-10 * abs(base) for _ in range(50)))
    x = np.array([0.3, 0.2])
    oracle = _psi_quadrature_oracle(1, 1.5, x)
    checks.append(abs(psi_getoor(1, 1.5, 2, x) - oracle) <= 1e-3 * abs(oracle))
    _check(report_line, 7, all(checks),
           "2F1 log and Gauss-summation identities to 1e-10, Psi_(0,1)(0) = 1, "
           "k = 0 interior constancy to 1e-10, Psi_(1,1.5) matches the "
           f"quadrature oracle to 1e-3 ({sum(checks)}/{len(checks)} checks)")


def test_criterion_08_integrability_table(report_line):
    table = integrability_table()
    cases = [case for row in table for case in row["cases"]]
    agree = sum(case["agrees"] for case in cases)
    _check(report_line, 8, len(cases) == 12 and agree == 12,
           f"integrability table: {agree}/{len(cases)} verdicts agree on "
           "parameters 10% inside and outside each boundary")


def test_criterion_09_existence_thresholds(report_line):
    failures = []
    # Corollary i at p = 1: convergence iff alpha > 1
    for alpha in (0.6, 0.7, 0.8, 0.9, 0.95, 1.05, 1.2, 1.4, 1.6, 1.8):
        chk = check_theorem2(ScaledStable(alpha=alpha),
                             delta=0.5, p=1.0)
        if chk.cond_eta != (alpha > 1.0):
            failures.append(("p=1", alpha))
    # Corollary ii at p = 2, alpha = 1.5: convergence iff delta < 2 - 2/alpha
    for delta in (0.2, 0.35, 0.5, 0.6, 0.63, 0.70, 0.75, 0.85, 1.0, 1.2):
        chk = check_theorem2(ScaledStable(alpha=1.5),
                             delta=delta, p=2.0)
        if chk.cond_eta != (delta < 2.0 / 3.0):
            failures.append(("p=2", delta))
    _check(report_line, 9, not failures,
           "Corollary thresholds (alpha > 1 at p=1; delta < 2 - 2/alpha at "
           f"p=2) reproduced on a 20-point grid (failures: {failures or 'none'})")


def test_criterion_10_determinism(report_line, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "nld", "d": 1, "alpha": 1.5, "k": 1, "t": 0.9, "T": 1.0,
        "n_trees": 30_000, "seed": 10, "grid": "-1:1:5"}))
    outputs = []
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("w1-again", 1)):
        out = tmp_path / f"{tag}.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    _check(report_line, 10, ok,
           "byte-identical sweep CSV for workers in {1, 4, 8} and across two "
           "consecutive runs")


def test_criterion_11_clt_scaling(report_line):
    model = builtin_model("linear-test", alpha=1.5, c=1.0)
    ns = (1_000, 10_000, 100_000)
    errs = [estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=n,
                     master_seed=11).stderr for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    _check(report_line, 11, abs(slope + 0.5) <= 0.05,
           f"stderr vs n log-log slope {slope:.3f} within -0.5 +/- 0.05")


def test_criterion_12_burgers(report_line):
    failures = []
    grid = np.linspace(-3.0, 3.0, 11)
    for name, t in (("burgers-halfspace", 0.99), ("burgers-cosine", 0.9)):
        model = builtin_model(name, d=2, alpha=1.5, kappa=10.0)
        for pi, x1 in enumerate(grid):
            x = np.array([x1, 0.0])
            a = estimate(model, t, x, 0, 1.0, n_trees=100_000,
                         master_seed=1200 + pi)
            b = estimate(model, t, x, 0, 1.0, n_trees=100_000,
                         master_seed=9900 + pi)
            sigma = math.sqrt(a.stderr ** 2 + b.stderr ** 2)
            if abs(a.mean - b.mean) > 3.0 * sigma:
                failures.append((name, x1))
    _check(report_line, 12, not failures,
           "burgers d=2 kappa=10: both terminal conditions complete within "
           "budget and two seeds agree pointwise within 3 combined stderr "
           f"(failures: {failures or 'none'})")
