import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import integrate

from branchpde.errors import (AdmissibilityError, DomainError,
                              UnknownModelError)
from branchpde.model import (BranchingLaw, ClippedCoordinate,
                             ConstantCoefficient, ConstantTerminal,
                             CosineProduct, ExpressionCoefficient,
                             ExpressionTerminal, GraddSource,
                             HalfspaceIndicator, LifetimeDensity, NldSource,
                             PdeModel, PolynomialNonlinearity, ScaledBump,
                             TerminalCondition, audit_coeff_sup,
                             builtin_model, uniform_branching)
from branchpde.specfun import phi_bump, psi_getoor_batch


def _model(d, nonlin, phi=ConstantTerminal()):
    return PdeModel(name="toy", d=d, alpha=1.5, kappa=1.0,
                    nonlinearity=nonlin,
                    terminal=TerminalCondition(phi, 1.0, 0.0),
                    branching=uniform_branching(len(nonlin.indices)),
                    lifetime=LifetimeDensity(0.5))


class TestManufacturedIdentities:
    """The source terms must close the PDE for the manufactured solution
    u(t, x) = e^(-t) (1 - |x|^2)_+^(k + alpha/2)."""

    @pytest.mark.parametrize("k,alpha,d", [(0, 1.5, 1), (1, 1.5, 2),
                                           (0, 1.2, 10), (2, 1.8, 3)])
    def test_nld_source(self, k, alpha, d):
        # c_0 + u + u^4 must equal e^(-t) (Psi + Phi)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.3, 1.3, (20, d))
        r2 = np.sum(x ** 2, axis=1)
        for t in (0.0, 0.35, 1.0):
            u = math.exp(-t) * phi_bump(k, alpha, x)
            lhs = NldSource(k=k, alpha=alpha, d=d)(t, x) + u + u ** 4
            rhs = math.exp(-t) * (psi_getoor_batch(k, alpha, d, r2)
                                  + phi_bump(k, alpha, x))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k,alpha,d", [(1, 1.5, 2), (2, 1.5, 2), (1, 1.2, 3)])
    def test_gradd_source(self, k, alpha, d):
        # c_0 + u + sum_i u du/dx_i must equal e^(-t) (Psi + Phi), with the
        # gradient taken by central differences
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.65, 0.65, (20, d))
        r2 = np.sum(x ** 2, axis=1)
        h = 1e-6
        for t in (0.0, 0.5):
            u = math.exp(-t) * phi_bump(k, alpha, x)
            conv = np.zeros(20)
            for i in range(d):
                xp, xm = x.copy(), x.copy()
                xp[:, i] += h
                xm[:, i] -= h
                du = math.exp(-t) * (phi_bump(k, alpha, xp)
                                     - phi_bump(k, alpha, xm)) / (2.0 * h)
                conv += u * du
            lhs = GraddSource(k=k, alpha=alpha, d=d)(t, x) + u + conv
            rhs = math.exp(-t) * (psi_getoor_batch(k, alpha, d, r2)
                                  + phi_bump(k, alpha, x))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-7)


class TestTerminals:
    def test_scaled_bump(self):
        phi = ScaledBump(k=1, alpha=1.5, scale=0.5)
        assert phi(np.zeros(2)) == 0.5
        assert phi(np.array([[0.0, 0.0], [2.0, 0.0]]))[1] == 0.0

    def test_cosine_product(self):
        phi = CosineProduct(d=2)
        x = np.array([[0.0, 0.0], [0.5, 0.3], [2.0, 0.0]])
        vals = phi(x)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(math.cos(0.5) * math.cos(0.3))
        assert vals[2] == 0.0  # outside the box [-pi/2, pi/2]^2

    def test_halfspace(self):
        phi = HalfspaceIndicator()
        np.testing.assert_array_equal(
            phi(np.array([[0.0, 1.0], [-0.1, 5.0], [3.0, -2.0]])),
            [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3, 7])
    @pytest.mark.parametrize("lead", [0, 1, 2])
    @pytest.mark.parametrize("name", ["cosine", "halfspace"])
    def test_fold_matches_call(self, name, d, lead):
        """Folded at rows of the coordinates from ``lead`` on, a catalog
        terminal gives at points (G, rows, lead) the bits of its call at the
        joined points, which are those of prod_j cos(x_j) times the box
        test, or of 1{x_1 >= 0}.  The points include the box's edges,
        values just outside them and signed zeros."""
        phi = CosineProduct(d=d) if name == "cosine" else HalfspaceIndicator()
        rng = np.random.default_rng(10 * d + lead)
        edges = [-np.pi / 2, np.pi / 2, np.nextafter(np.pi / 2, 4.0),
                 np.nextafter(-np.pi / 2, -4.0), 0.0, -0.0]
        x = rng.uniform(-2.5, 2.5, (4, 60, d))
        at_edge = rng.random(x.shape) < 0.2
        x[at_edge] = rng.choice(edges, at_edge.sum())
        x[:, :, lead:] = x[0, :, lead:]         # the points share the tail
        folded = phi.fold(x[0, :, lead:], lead)
        got = folded(x[:, :, :lead])
        assert got.shape == (4, 60)
        assert got.tobytes() == phi(x).tobytes()
        if name == "cosine":
            want = (np.prod(np.cos(x), axis=-1)
                    * np.all(np.abs(x) <= np.pi / 2, axis=-1))
        else:
            want = (x[..., 0] >= 0.0).astype(float)
        assert got.tobytes() == want.tobytes()

    def test_clipped_coordinate(self):
        phi = ClippedCoordinate(index=2, bound=1.0)
        np.testing.assert_array_equal(
            phi(np.array([[9.0, 0.3], [0.0, -4.0]])), [0.3, -1.0])

    def test_expression_terminal(self):
        phi = ExpressionTerminal(src="cos(x1) * cos(x2)", d=2)
        assert phi(np.array([0.2, 0.4]))[0] == pytest.approx(
            math.cos(0.2) * math.cos(0.4))

    def test_validation(self):
        with pytest.raises(DomainError):
            TerminalCondition(phi=ConstantTerminal(), sup_norm=-1.0, lipschitz=0.0)
        with pytest.raises(DomainError):
            TerminalCondition(phi=ConstantTerminal(), sup_norm=1.0, lipschitz=-2.0)


class TestComponents:
    def test_branching_law(self):
        law = BranchingLaw(probs=(0.5, 0.25, 0.25))
        assert law.q_min == 0.25
        with pytest.raises(DomainError):
            BranchingLaw(probs=(0.5, 0.5, 0.0))
        with pytest.raises(DomainError):
            BranchingLaw(probs=(0.5, 0.4))

    def test_uniform_branching(self):
        law = uniform_branching(4)
        assert law.q_min == 0.25
        assert sum(law.probs) == pytest.approx(1.0)

    def test_lifetime_density_normalized(self):
        rho = LifetimeDensity(delta=0.5)
        total, _ = integrate.quad(rho.rho, 0.0, np.inf)
        assert total == pytest.approx(1.0, rel=1e-9)
        tail, _ = integrate.quad(rho.rho, 0.7, np.inf)
        assert rho.survival(0.7) == pytest.approx(tail, rel=1e-9)
        with pytest.raises(DomainError):
            LifetimeDensity(delta=0.0)

    def test_nonlinearity_validation(self):
        one = ConstantCoefficient(1.0)
        m2 = PolynomialNonlinearity(indices=((0, 0, 0),), coeffs=(one,),
                                    coeff_sup=(1.0,))
        assert _model(2, m2).m == 2     # read from the multi-index length
        with pytest.raises(DomainError):
            _model(1, m2)       # m > d
        with pytest.raises(DomainError):
            _model(0, dataclasses.replace(m2, indices=((0,),)))
        with pytest.raises(DomainError):     # lengths disagree
            PolynomialNonlinearity(indices=((0,), (1, 0)), coeffs=(one, one),
                                   coeff_sup=(1.0, 1.0))
        with pytest.raises(DomainError):     # a negative entry
            PolynomialNonlinearity(indices=((0, -1),), coeffs=(one,),
                                   coeff_sup=(1.0,))
        with pytest.raises(DomainError):
            PolynomialNonlinearity(indices=((1,), (2,)), coeffs=(one,),
                                   coeff_sup=(1.0,))
        with pytest.raises(DomainError):     # L_m is empty
            PolynomialNonlinearity(indices=(), coeffs=(), coeff_sup=())
        with pytest.raises(DomainError):
            dataclasses.replace(m2, coeff_sup=(-1.0,))

    @pytest.mark.parametrize("coeff,phi", [
        (NldSource(k=1, alpha=1.5, d=3), ConstantTerminal()),
        (GraddSource(k=1, alpha=1.5, d=3), ConstantTerminal()),
        (ExpressionCoefficient(src="x1", d=3), ConstantTerminal()),
        (ConstantCoefficient(1.0), ExpressionTerminal(src="x1", d=1)),
        (ConstantCoefficient(1.0), CosineProduct(d=3)),
    ])
    def test_dimension_mismatch_is_refused(self, coeff, phi):
        # PdeModel.d is the model's one dimension: every part that carries
        # its own d must agree with it
        nonlin = PolynomialNonlinearity(indices=((0,),), coeffs=(coeff,),
                                        coeff_sup=(1.0,))
        with pytest.raises(DomainError):
            _model(2, nonlin, phi)

    def test_expression_coefficient(self):
        c = ExpressionCoefficient(src="exp(-t) * x1", d=2)
        np.testing.assert_allclose(
            c(1.0, np.array([[2.0, 0.0], [3.0, 1.0]])),
            [2.0 * math.exp(-1.0), 3.0 * math.exp(-1.0)])


class TestCatalog:
    def test_names_and_shapes(self):
        nld = builtin_model("nld", d=10, alpha=1.5, k=1)
        assert nld.m == 0 and len(nld.nonlinearity.indices) == 3
        gradd = builtin_model("gradd", d=2, alpha=1.5, k=1)
        assert gradd.m == 2 and len(gradd.nonlinearity.indices) == 4
        assert (1, 0, 0) in gradd.nonlinearity.indices
        burg = builtin_model("burgers-cosine", d=2, alpha=1.5, kappa=10.0)
        assert burg.m == 2 and len(burg.nonlinearity.indices) == 2
        lin = builtin_model("linear-test", c=0.7)
        assert lin.nonlinearity.indices == ((1,),)

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            builtin_model("heat")

    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            builtin_model("gradd", d=2, alpha=1.0)
        with pytest.raises(AdmissibilityError):
            builtin_model("burgers-cosine", d=2, alpha=0.9)
        with pytest.raises(AdmissibilityError):
            builtin_model("nld", alpha=2.0)
        builtin_model("burgers-cosine", d=2, alpha=2.0)  # boundary allowed
        with pytest.raises(AdmissibilityError):
            builtin_model("linear-test", kappa=-1.0)

    def test_terminal_lipschitz_flags(self):
        assert builtin_model("burgers-halfspace", d=2).terminal.lipschitz is None
        assert builtin_model("burgers-cosine", d=2).terminal.lipschitz == \
            pytest.approx(math.sqrt(2.0))
        # bump with k + alpha/2 < 1 has unbounded gradient at the support edge
        assert builtin_model("nld", alpha=1.5, k=0).terminal.lipschitz is None
        assert builtin_model("nld", alpha=1.5, k=1).terminal.lipschitz == \
            pytest.approx(2.0 * 1.75 * math.exp(-1.0))

    @pytest.mark.parametrize("name,kwargs", [
        ("nld", dict(d=2, k=1)),
        ("gradd", dict(d=2, k=1)),
        ("burgers-cosine", dict(d=2, kappa=10.0)),
        ("linear-test", dict(c=0.5)),
    ])
    def test_audit_passes(self, name, kwargs):
        assert audit_coeff_sup(builtin_model(name, **kwargs)) == ()

    def test_audit_flags_violation(self):
        nonlin = PolynomialNonlinearity(
            indices=((1,),), coeffs=(ConstantCoefficient(5.0),),
            coeff_sup=(1.0,))
        model = PdeModel(name="bad", d=1, alpha=1.5, kappa=1.0,
                         nonlinearity=nonlin,
                         terminal=TerminalCondition(ConstantTerminal(), 1.0, 0.0),
                         branching=uniform_branching(1),
                         lifetime=LifetimeDensity(0.5))
        notes = audit_coeff_sup(model)
        assert len(notes) == 1
        assert "(1,)" in notes[0] and "reached 5" in notes[0]

    @pytest.mark.parametrize("name,kwargs,direction", [
        ("nld", dict(d=10, k=0), np.eye(10)[0]),
        ("nld", dict(d=3, k=2, alpha=0.7, T=0.5), np.eye(3)[0]),
        ("gradd", dict(d=2, k=1), np.ones(2)),
        ("gradd", dict(d=3, k=0, alpha=1.2, T=2.0), np.ones(3)),
    ])
    def test_radial_scan_is_the_per_time_scan(self, name, kwargs, direction):
        # the build evaluates the source once on the whole (t, r) grid; the
        # bound equals the scan that calls it at one t at a time
        model = builtin_model(name, **kwargs)
        coeff = model.nonlinearity.coeffs[0]
        r2 = np.concatenate([np.linspace(0.0, 0.999, 400),
                             1.0 + np.geomspace(1e-4, 24.0, 400)])
        x = (np.sqrt(np.maximum(r2, 1e-30))[:, None]
             / np.linalg.norm(direction) * direction)
        T = kwargs.get("T", 1.0)
        loop = max(float(np.max(np.abs(coeff(t, x))))
                   for t in np.linspace(0.0, T, 41))
        assert model.nonlinearity.coeff_sup[0] == loop

    def test_models_pickle(self):
        for name, kwargs in [("nld", dict(d=10, k=1)),
                             ("gradd", dict(d=2, k=1)),
                             ("burgers-halfspace", dict(d=2, kappa=10.0)),
                             ("linear-test", {})]:
            model = builtin_model(name, **kwargs)
            clone = pickle.loads(pickle.dumps(model))
            x = np.full((3, model.d), 0.2)
            np.testing.assert_array_equal(clone.terminal.phi(x),
                                          model.terminal.phi(x))
            for c0, c1 in zip(model.nonlinearity.coeffs,
                              clone.nonlinearity.coeffs):
                np.testing.assert_array_equal(c0(0.3, x), c1(0.3, x))
