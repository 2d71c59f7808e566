import numpy as np
import pytest

from mirropt.geometry import (FEASIBILITY_TOL, NORMALIZATION_TOL,
                              OPTIMALITY_TOL, DimensionMismatchError,
                              FeasibleSet, GeometryDomainError, ProductSetup,
                              doubled_to_signed, entropy_l1_ball_setup,
                              entropy_setup, euclidean_setup,
                              signed_to_doubled)


def sample_setups():
    return [
        euclidean_setup(FeasibleSet.all_space(3)),
        euclidean_setup(FeasibleSet.box(np.full(3, -1.0), np.full(3, 2.0))),
        euclidean_setup(FeasibleSet.ball(np.zeros(3), 1.5)),
        euclidean_setup(FeasibleSet.simplex(4)),
        entropy_setup(4),
        entropy_l1_ball_setup(3),
    ]


def sample_interior(setup, rng):
    s = setup.set
    if s.kind == "all":
        return rng.standard_normal(s.dim)
    if s.kind == "box":
        t = rng.uniform(0.05, 0.95, size=s.dim)
        return s.lower + t * (s.upper - s.lower)
    if s.kind == "ball":
        v = rng.standard_normal(s.dim)
        v /= np.linalg.norm(v)
        return s.center + v * s.radius * rng.uniform(0.0, 0.95)
    w = rng.uniform(0.05, 1.0, size=s.dim)
    return w * (s.scale / w.sum())


class TestDualNorm:
    def test_euclidean_self_dual(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        assert setup.dual_norm(np.array([3.0, 4.0])) == 5.0

    def test_l1_dual_is_linf(self):
        setup = entropy_setup(2)
        assert setup.dual_norm(np.array([1.0, -2.0])) == 2.0

    def test_zero(self):
        for setup in sample_setups():
            assert setup.dual_norm(np.zeros(setup.dim)) == 0.0

    def test_dimension_mismatch(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        with pytest.raises(DimensionMismatchError):
            setup.dual_norm(np.zeros(3))


class TestBregman:
    def test_euclidean_half_square(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        assert setup.bregman(np.zeros(2), np.array([3.0, 4.0])) == 12.5

    def test_entropy_kl_to_vertex(self):
        setup = entropy_setup(2)
        x = np.array([0.5, 0.5])
        y = np.array([1.0, 0.0])
        v = setup.bregman(x, y)
        assert v == pytest.approx(np.log(2.0), abs=1e-12)
        # cross-check against d(y) - d(x) - <grad d(x), y - x> with y clamped
        yc = np.array([1.0 - 1e-12, 1e-12])
        ref = setup.d(yc) - setup.d(x) - setup.grad_d(x) @ (yc - x)
        assert v == pytest.approx(ref, abs=1e-9)

    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for setup in sample_setups():
            x = sample_interior(setup, rng)
            assert setup.bregman(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_domain_error(self):
        setup = entropy_setup(3)
        with pytest.raises(GeometryDomainError):
            setup.grad_d(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(GeometryDomainError):
            setup.bregman(np.array([1.0, 0.0, 0.0]), np.full(3, 1 / 3))


class TestMirrorStep:
    def test_euclidean_all_space_is_gradient_step(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        out = setup.mirror_step(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        assert np.allclose(out, [0.5, 3.0], atol=1e-15)

    def test_entropy_multiplicative_update(self):
        setup = entropy_setup(2)
        x = np.array([0.5, 0.5])
        p = np.array([np.log(2.0), 0.0])
        out = setup.mirror_step(x, p)
        assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)
        # independent check: grid-minimize <p,z> + V[x](z) over the simplex
        ts = np.linspace(1e-6, 1 - 1e-6, 20001)
        zs = np.stack([ts, 1 - ts], axis=1)
        obj = zs @ p + np.array([setup.bregman(x, z) for z in zs])
        assert abs(ts[np.argmin(obj)] - out[0]) < 1e-4

    def test_ball_radial_projection(self):
        setup = euclidean_setup(FeasibleSet.ball(np.zeros(2), 1.0))
        out = setup.mirror_step(np.zeros(2), np.array([-2.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

    def test_optimality_and_feasibility(self):
        rng = np.random.default_rng(1)
        for setup in sample_setups():
            x = sample_interior(setup, rng)
            p = rng.standard_normal(setup.dim)
            out = setup.mirror_step(x, p)
            assert setup.set.contains(out, FEASIBILITY_TOL)
            # variational inequality at the output
            grad_gap = p + setup.grad_d(np.maximum(out, 1e-300)
                                        if setup.kind == "entropy" else out) \
                - setup.grad_d(x)
            for _ in range(100):
                z = sample_interior(setup, rng)
                assert grad_gap @ (z - out) >= -OPTIMALITY_TOL

    def test_simplex_preservation(self):
        rng = np.random.default_rng(2)
        setup = entropy_setup(5)
        x = setup.prox_center()
        for _ in range(50):
            x = setup.mirror_step(x, rng.standard_normal(5))
            assert np.all(x > 0)
            assert abs(x.sum() - 1.0) <= NORMALIZATION_TOL


class TestProxCenter:
    def test_entropy_uniform(self):
        assert np.allclose(entropy_setup(4).prox_center(), np.full(4, 0.25))

    def test_ball_center(self):
        setup = euclidean_setup(FeasibleSet.ball(np.zeros(3), 2.0))
        assert np.allclose(setup.prox_center(), np.zeros(3))

    def test_box_projection_of_origin(self):
        setup = euclidean_setup(FeasibleSet.box(np.full(2, 1.0), np.full(2, 2.0)))
        assert np.allclose(setup.prox_center(), [1.0, 1.0])

    def test_minimizes_d(self):
        rng = np.random.default_rng(3)
        for setup in sample_setups():
            c = setup.prox_center()
            dc = setup.d(c)
            for _ in range(50):
                assert dc <= setup.d(sample_interior(setup, rng)) + 1e-12


class TestProperties:
    def test_strong_convexity(self):
        rng = np.random.default_rng(4)
        for setup in sample_setups():
            for _ in range(1000):
                x = sample_interior(setup, rng)
                y = sample_interior(setup, rng)
                v = setup.bregman(x, y)
                assert v >= 0.5 * setup.norm(y - x) ** 2 - 1e-9

    def test_nonnegativity_and_identity(self):
        rng = np.random.default_rng(5)
        for setup in sample_setups():
            for _ in range(200):
                x = sample_interior(setup, rng)
                y = sample_interior(setup, rng)
                assert setup.bregman(x, y) >= 0.0
                if setup.bregman(x, y) <= 1e-12:
                    assert np.allclose(x, y, atol=1e-5)

    def test_duality_pairing(self):
        rng = np.random.default_rng(6)
        for setup in sample_setups():
            for _ in range(200):
                x = sample_interior(setup, rng)
                p = rng.standard_normal(setup.dim)
                assert abs(p @ x) <= setup.dual_norm(p) * setup.norm(x) + 1e-12


class TestDoubledEncoding:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(5)
        assert np.allclose(doubled_to_signed(signed_to_doubled(u)), u)

    def test_l1_ball_membership(self):
        setup = entropy_l1_ball_setup(3, radius=2.0)
        v = setup.prox_center()
        u = doubled_to_signed(v)
        assert np.abs(u).sum() <= 2.0 + FEASIBILITY_TOL


class TestProductSetup:
    def test_split_and_norms(self):
        p1 = euclidean_setup(FeasibleSet.box(np.zeros(2), np.ones(2)))
        p2 = entropy_setup(3)
        prod = ProductSetup(p1, p2)
        z = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
        b1, b2 = prod.split(z)
        assert b1.size == 2 and b2.size == 3
        assert prod.norm(z) == pytest.approx(
            np.sqrt(p1.norm(b1) ** 2 + p2.norm(b2) ** 2))
        assert prod.contains(z)

    def test_mirror_step_blocks(self):
        p1 = euclidean_setup(FeasibleSet.box(np.zeros(1), np.ones(1)))
        p2 = entropy_setup(2)
        prod = ProductSetup(p1, p2)
        z = prod.prox_center()
        out = prod.mirror_step(z, np.array([10.0, 1.0, -1.0]))
        assert prod.contains(out)
        assert out[0] == 0.0
