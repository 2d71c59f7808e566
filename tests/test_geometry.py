import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mirropt.geometry import (ENTROPY_CLAMP, FEASIBILITY_TOL,
                              NORMALIZATION_TOL, OPTIMALITY_TOL,
                              DimensionMismatchError,
                              FeasibleSet, GeometryDomainError, ProductSetup,
                              _check_dim, _project_simplex, doubled_to_signed,
                              entropy_l1_ball_setup, entropy_setup,
                              euclidean_setup, signed_to_doubled)
from mirropt.oracles import FunctionOracle, ProblemInstance
from mirropt.subgradient import run_normalized_md


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


class TestNormsAtExtremeScales:
    """Euclidean norms scale by max|x_i| where x.x would underflow to a
    subnormal or overflow, with no RuntimeWarning (an error here)."""

    def test_tiny_dual_norm(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        assert setup.dual_norm([3e-170, 4e-170]) == \
            pytest.approx(5e-170, rel=1e-15, abs=0)
        assert setup.norm([3e-170, 4e-170]) == \
            pytest.approx(5e-170, rel=1e-15, abs=0)

    def test_tiny_gradients_do_not_stop_normalized_md(self):
        """f = s ||x||_1 from (1, -1): at s = 1e-170, ||g|| once read 0, so
        the run stopped at once with stopped_exact at (1, -1)."""
        def run(scale):
            problem = ProblemInstance(
                FunctionOracle(lambda x: scale * float(np.abs(x).sum()),
                               lambda x: scale * np.sign(x)),
                FeasibleSet.all_space(2))
            setup = euclidean_setup(problem.set, origin=np.array([1.0, -1.0]))
            return run_normalized_md(problem, setup, 2.0, 100)
        tiny, unit = run(1e-170), run(1.0)
        assert tiny.iterations == unit.iterations == 100
        assert not tiny.stopped_exact
        assert np.allclose(tiny.x_out, unit.x_out, rtol=1e-12, atol=0)

    def test_huge_dual_norm(self):
        setup = euclidean_setup(FeasibleSet.all_space(2))
        assert setup.dual_norm([1e200, 1e200]) == \
            pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)

    def test_huge_max_linear_over_a_ball(self):
        ball = FeasibleSet.ball(np.zeros(1), 1.0)
        assert ball.max_linear([1e200]) == 1e200
        assert ball.contains([0.5]) and not ball.contains([1e200])

    def test_huge_step_projects_onto_the_ball(self):
        """The step once scaled y by 1 / inf and returned the centre."""
        setup = euclidean_setup(FeasibleSet.ball(np.zeros(2), 1.0))
        assert np.array_equal(setup.mirror_step(np.zeros(2), [-1e200, 0.0]),
                              [1.0, 0.0])


def reference_project_simplex(y, scale):
    """The sort-based projection without the shift to max y = 0."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - scale
    rho = int(np.nonzero(u - css / np.arange(1, y.size + 1) > 0)[0][-1])
    return np.maximum(y - css[rho] / (rho + 1.0), 0.0)


def shifted(y, scale):
    """Whether _project_simplex projects y - max y: where max y dwarfs the
    scale, or the n entries' rounding could miss it by FEASIBILITY_TOL."""
    top = abs(y.max())
    return top > min(scale * 2.0 ** 26, 2.0 ** 20 / y.size)


class TestProjectSimplex:
    """Where max y dwarfs the scale, u_0 - scale rounded off the scale: no
    index passed the support test (IndexError) or the point left the
    simplex.  The projection of y - max y is taken there instead."""

    @pytest.mark.parametrize("y, x", [
        ([1e20, 0.0, 0.0], [1.0, 0.0, 0.0]),            # was IndexError
        ([1e20, 1e20, 0.0], [0.5, 0.5, 0.0]),           # was IndexError
        ([2.0 ** 53 + 2.0, 0.0, 0.0], [1.0, 0.0, 0.0]),  # was [2, 0, 0]
        ([-1e20, -1e20, -1e20], [1 / 3, 1 / 3, 1 / 3]),
        ([-1e20, 0.0, 0.0], [0.0, 0.5, 0.5]),
        ([1e308, -1e308, 0.0], [1.0, 0.0, 0.0]),    # y - max y overflowed
        ([0.0, -1e308, -1e308], [1.0, 0.0, 0.0]),   # was [inf, inf, inf]
    ])
    def test_dwarfing_entries(self, y, x):
        y = np.array(y)
        assert _project_simplex(y, 1.0) is y
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("p", [[math.nan, 0.0, 0.0],
                                   [0.0, 0.0, math.nan],
                                   [-math.inf, 0.0, 0.0]])
    def test_non_finite_target_raises_runtime_error(self, p):
        """x - p with a NaN or +inf entry raised IndexError."""
        setup = euclidean_setup(FeasibleSet.simplex(3))
        with pytest.raises(RuntimeError, match="^non-finite"):
            setup.mirror_step(setup.prox_center(), np.array(p))

    def test_minus_inf_target_entry_still_projects(self):
        y = np.array([-math.inf, 0.0, 0.0])
        assert np.array_equal(_project_simplex(y, 1.0), [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("y, scale", [
        (np.full(9, 1e7), 1.0),         # the sum was off by 7.5e-9
        (np.full(64, 1e6), 1.1832),     # and by 1.7e-9
    ])
    def test_many_large_equal_entries_stay_on_the_simplex(self, y, scale):
        got = _project_simplex(y.copy(), scale)
        assert FeasibleSet.simplex(y.size, scale).contains(got)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64).flatmap(
        lambda n: vectors(n, min_value=-1e300, max_value=1e300)),
        st.floats(0.1, 10.0), st.booleans())
    @example(np.array([1e308, -1e308, 0.0]), 1.0, False)
    def test_on_the_simplex_without_a_warning(self, y, scale, small):
        """RuntimeWarnings are errors under the test config."""
        if small:
            y = y / max(1.0, np.abs(y).max()) * 1e4
        got = _project_simplex(y.copy(), scale)
        assert FeasibleSet.simplex(y.size, scale).contains(got)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: vectors(n, min_value=-1e300, max_value=1e300)),
        st.floats(0.25, 4.0), st.booleans())
    @example(np.array([1e20, 0.0]), 1.0, False)
    def test_shift_only_where_max_y_dwarfs_the_scale(self, y, scale, small):
        """Unshifted, the bits are the unshifted formula's (which may miss
        the simplex by ~|max y| 2^-52 per entry); shifted, those of the
        projection of y - max y, on the simplex."""
        if small:
            y = y / max(1.0, np.abs(y).max()) * 1e6     # |y| <= 1e6 < 2^26/4
        got = _project_simplex(y.copy(), scale)
        if not shifted(y, scale):
            assert same_bits(got, reference_project_simplex(y, scale))
        else:
            assert same_bits(got, reference_project_simplex(y - y.max(),
                                                            scale))
            assert FeasibleSet.simplex(y.size, scale).contains(got)


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

    def test_dual_norm_is_root_sum_of_squares(self):
        """||(g1, g2)||_* = sqrt(||g1||_2^2 + ||g2||_inf^2) on a Euclidean
        x entropy product: 5 and 12 give 13."""
        prod = ProductSetup(euclidean_setup(FeasibleSet.all_space(2)),
                            entropy_setup(3))
        assert prod.dual_norm(np.array([3.0, -4.0, 1.0, -12.0, 2.0])) == 13.0

    def test_mirror_step_blocks(self):
        p1 = euclidean_setup(FeasibleSet.box(np.zeros(1), np.ones(1)))
        p2 = entropy_setup(2)
        prod = ProductSetup(p1, p2)
        z = prod.prox_center()
        out = prod.mirror_step(z, np.array([10.0, 1.0, -1.0]))
        assert prod.contains(out)
        assert out[0] == 0.0


# -- the per-call fast paths equal the numpy reference formulas, bit for bit --

def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def vectors(n, **floats):
    return hnp.arrays(np.float64, n, elements=st.floats(width=64, **floats))


@st.composite
def euclidean_and_vector(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["all", "box", "ball"]))
    if kind == "all":
        fs = FeasibleSet.all_space(n)
    elif kind == "box":
        fs = FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0))
    else:
        fs = FeasibleSet.ball(np.zeros(n), 2.0)
    return euclidean_setup(fs), draw(vectors(n))


@st.composite
def box_step(draw):
    """A box (signed-zero bounds included), an origin, x and p."""
    n = draw(st.integers(1, 40))
    bounds = vectors(n, allow_nan=False)
    a, b = draw(bounds), draw(bounds)
    box = FeasibleSet.box(np.minimum(a, b), np.maximum(a, b))
    setup = euclidean_setup(box, origin=draw(vectors(n, allow_nan=False)))
    return setup, draw(vectors(n)), draw(vectors(n))


@st.composite
def entropy_step(draw):
    """An entropy setup (simplex, scaled simplex or l1 ball), x and p."""
    n = draw(st.integers(1, 40))
    setup = draw(st.sampled_from([entropy_setup(n), entropy_setup(n, 2.5),
                                  entropy_l1_ball_setup(n, radius=0.5)]))
    return (setup, draw(vectors(setup.dim, min_value=0.0, max_value=1.0)),
            draw(vectors(setup.dim)))


def blocks(prod, z):
    """z cut at the parts' dimensions, without ProductSetup's own slicing."""
    return np.split(z, np.cumsum([part.dim for part in prod.parts])[:-1])


@st.composite
def product_case(draw):
    """A product of 1-4 entropy, box, ball and simplex parts of 1-40 dims
    each, an x (entropy blocks in the simplex, others anywhere) and a p."""
    parts, xs = [], []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(["entropy", "box", "ball", "simplex"]))
        if kind == "entropy":
            w = draw(vectors(n, min_value=0.0, max_value=1.0))
            parts.append(entropy_setup(n))
            xs.append(w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n))
            continue
        if kind == "box":
            fs = FeasibleSet.box(np.full(n, -1.0), np.full(n, 2.0))
        elif kind == "ball":
            fs = FeasibleSet.ball(np.linspace(-1.0, 1.0, n), 1.5)
        else:
            fs = FeasibleSet.simplex(n, scale=2.0)
        parts.append(euclidean_setup(fs))
        xs.append(draw(vectors(n, min_value=-1e3, max_value=1e3)))
    prod = ProductSetup(*parts)
    return (prod, np.concatenate(xs),
            draw(vectors(prod.dim, min_value=-1e3, max_value=1e3)))


@st.composite
def any_step(draw):
    """A setup of any kind with an x and a p: Euclidean all-space (nan and
    inf included), box, ball or simplex, entropy, or a product of parts."""
    kind = draw(st.sampled_from(["all", "box", "ball", "simplex", "entropy",
                                 "product"]))
    if kind == "box":
        return draw(box_step())
    if kind == "entropy":
        return draw(entropy_step())
    if kind == "product":
        return draw(product_case())
    n = draw(st.integers(1, 40))
    if kind == "all":
        return (euclidean_setup(FeasibleSet.all_space(n)), draw(vectors(n)),
                draw(vectors(n)))
    fs = (FeasibleSet.ball(np.linspace(-1.0, 1.0, n), 1.5) if kind == "ball"
          else FeasibleSet.simplex(n, scale=2.0))
    finite = vectors(n, min_value=-1e3, max_value=1e3)
    return euclidean_setup(fs), draw(finite), draw(finite)


def reference_step(setup, x, p):
    """The allocating mirror step, formula by formula: entropy reweights
    x by exp(-p), a Euclidean step projects x - p, and a product steps part
    by part."""
    if isinstance(setup, ProductSetup):
        return np.concatenate([reference_step(part, bx, bp) for part, bx, bp
                               in zip(setup.parts, blocks(setup, x),
                                      blocks(setup, p))])
    if setup.kind == "entropy":
        logw = np.log(np.maximum(x, ENTROPY_CLAMP)) - p
        logw -= logw.max()
        w = np.exp(logw)
        return w * (setup.set.scale / w.sum())
    s, y = setup.set, x - p
    if s.kind == "box":
        return np.clip(y, s.lower, s.upper)
    if s.kind == "ball":
        diff = y - s.center
        nrm = np.linalg.norm(diff)
        return y if nrm <= s.radius else s.center + diff * (s.radius / nrm)
    if s.kind == "simplex":
        return _project_simplex(y, s.scale)
    return y


class TestFastPaths:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(any_step(), st.booleans())
    def test_step_into_out_is_the_allocating_step(self, case, into_x):
        """mirror_step(x, p, out=buf) writes the bytes of the allocating
        step's formula into buf and returns it, buf = x included, and
        leaves p alone."""
        setup, x, p = case
        ref = reference_step(setup, x, p)
        before = x.copy(), p.copy()
        buf = x.copy() if into_x else np.full(setup.dim, np.nan)
        got = setup.mirror_step(buf if into_x else x, p, out=buf)
        assert got is buf
        assert same_bits(buf, ref)
        assert same_bits(x, before[0]) and same_bits(p, before[1])

    def test_ball_step_with_a_nan_is_the_allocating_step(self):
        """A NaN norm fails ``nrm <= radius``, so the whole step is scaled
        to NaN, as the allocating formula does, not only the NaN entry."""
        setup = euclidean_setup(FeasibleSet.ball(np.zeros(3), 1.0))
        x, p = np.zeros(3), np.array([0.5, np.nan, 0.0])
        got = setup.mirror_step(x, p)
        assert np.isnan(got).all()
        assert same_bits(got, reference_step(setup, x, p))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf and nan
    @settings(max_examples=300, deadline=None)
    @given(euclidean_and_vector())
    def test_euclidean_norms_are_linalg_norm(self, case):
        """The bits of ``np.linalg.norm`` wherever p.p is finite and at
        least 2^-969, or p is not finite; elsewhere, where p.p lost bits to
        underflow or overflowed, math.hypot's value to a few ulps."""
        setup, p = case
        if np.all(np.isfinite(p)) and not 2.0 ** -969 <= p @ p < math.inf:
            ref = pytest.approx(math.hypot(*p), rel=1e-14, abs=1e-323)
            assert setup.dual_norm(p) == ref and setup.norm(p) == ref
            return
        ref = float(np.linalg.norm(p))
        assert same_bits(setup.dual_norm(p), ref)
        assert same_bits(setup.norm(p), ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(box_step())
    def test_box_step_is_clip_and_mutates_nothing(self, case):
        setup, x, p = case
        before = x.copy(), p.copy(), setup.origin.copy()
        out = setup.mirror_step(x, p)
        assert same_bits(out, np.clip(x - p, setup.set.lower, setup.set.upper))
        assert out is not x and out is not p
        assert same_bits(setup.prox_center(),
                         np.clip(setup.origin, setup.set.lower,
                                 setup.set.upper))
        for arr, old in zip((x, p, setup.origin), before):
            assert same_bits(arr, old)

    def test_box_step_signed_zeros(self):
        lo = np.array([0.0, -0.0, -1.0, -1.0])
        hi = np.array([1.0, 1.0, 0.0, -0.0])
        setup = euclidean_setup(FeasibleSet.box(lo, hi))
        x = np.array([-0.0, 0.0, -0.0, 0.0])
        out = setup.mirror_step(x, np.zeros(4))
        assert same_bits(out, np.clip(x - np.zeros(4), lo, hi))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30))
    def test_check_dim_shapes_and_coercion(self, n):
        x = np.arange(n, dtype=float)
        assert _check_dim(n, x) is x
        for bad in (x.reshape(n, 1), np.zeros(n + 1), x[:, None].tolist()):
            with pytest.raises(DimensionMismatchError):
                _check_dim(n, bad)
        for ok in (list(range(n)), np.arange(n),
                   np.arange(n, dtype=np.float32)):
            got = _check_dim(n, ok)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert same_bits(got, x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(entropy_step())
    def test_entropy_step_is_the_allocating_formula(self, case):
        setup, x, p = case
        before = x.copy(), p.copy()
        out = setup.mirror_step(x, p)
        assert same_bits(out, reference_step(setup, x, p))
        assert not np.shares_memory(out, x) and not np.shares_memory(out, p)
        assert same_bits(x, before[0]) and same_bits(p, before[1])

    @settings(max_examples=200, deadline=None)
    @given(product_case())
    def test_product_step_is_the_parts_steps(self, case):
        prod, x, p = case
        before = x.copy(), p.copy()
        out = prod.mirror_step(x, p)
        ref = np.concatenate([part.mirror_step(bx, bp) for part, bx, bp
                              in zip(prod.parts, blocks(prod, x),
                                     blocks(prod, p))])
        assert same_bits(out, ref)
        assert not np.shares_memory(out, x) and not np.shares_memory(out, p)
        assert same_bits(x, before[0]) and same_bits(p, before[1])

    @settings(max_examples=200, deadline=None)
    @given(product_case())
    def test_product_norm_is_the_parts_formula(self, case):
        prod, x, _ = case
        before = x.copy()
        ref = float(np.sqrt(sum(part.norm(b) ** 2 for part, b
                                in zip(prod.parts, blocks(prod, x)))))
        assert same_bits(prod.norm(x), ref)
        assert same_bits(x, before)


# -- the closed-form maximum of a linear form over a set ---------------------

@st.composite
def set_and_direction(draw):
    n = draw(st.integers(1, 30))
    finite = dict(min_value=-1e3, max_value=1e3)
    kind = draw(st.sampled_from(["box", "ball", "simplex"]))
    if kind == "box":
        a, b = draw(vectors(n, **finite)), draw(vectors(n, **finite))
        fs = FeasibleSet.box(np.minimum(a, b), np.maximum(a, b))
    elif kind == "ball":
        fs = FeasibleSet.ball(draw(vectors(n, **finite)),
                              draw(st.floats(1e-3, 1e3)))
    else:
        fs = FeasibleSet.simplex(n, scale=draw(st.floats(1e-3, 1e3)))
    return fs, draw(vectors(n, **finite)), draw(st.integers(0, 2**32 - 1))


def argmax_linear(fs, t):
    """The vertex, corner or boundary point where <t, z> is largest."""
    if fs.kind == "simplex":
        z = np.zeros(fs.dim)
        z[int(np.argmax(t))] = fs.scale
        return z
    if fs.kind == "box":
        return np.where(t >= 0, fs.upper, fs.lower)
    # the direction t / max|t_i|, so that a tiny t's squares do not
    # underflow and radius / ||t|| does not overflow
    m = float(np.abs(t).max())
    if m == 0:
        return fs.center
    u = t / m
    return fs.center + (fs.radius / np.linalg.norm(u)) * u


def max_abs_member(fs):
    """A bound on |z_i| over the set's members z."""
    if fs.kind == "simplex":
        return fs.scale
    if fs.kind == "box":
        return float(np.maximum(np.abs(fs.lower), np.abs(fs.upper)).max())
    return float(np.abs(fs.center).max()) + fs.radius


def random_member(fs, rng):
    if fs.kind == "simplex":
        return fs.scale * rng.dirichlet(np.ones(fs.dim))
    if fs.kind == "box":
        return fs.lower + rng.uniform(size=fs.dim) * (fs.upper - fs.lower)
    v = rng.standard_normal(fs.dim)
    return fs.center + v * (fs.radius * rng.uniform() / np.linalg.norm(v))


class TestMaxLinear:
    @settings(max_examples=300, deadline=None)
    @given(set_and_direction())
    @example((FeasibleSet.ball(np.zeros(1), 1.0), np.array([1.9588061e-158]),
              0))
    @example((FeasibleSet.ball(np.zeros(1), 1.0), np.array([2.22507386e-309]),
              0))
    def test_bounds_every_member_and_is_attained(self, case):
        fs, t, seed = case
        value = fs.max_linear(t)
        # rounding of <t, z> is relative to sum |t_i| max |z_i|
        scale = 1.0 + float(np.abs(t).sum()) * max_abs_member(fs)
        best = argmax_linear(fs, t)
        assert fs.contains(best, tol=1e-9 * scale)
        assert math.isclose(value, float(t @ best), rel_tol=1e-12,
                            abs_tol=1e-12 * scale)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            assert value >= float(t @ random_member(fs, rng)) - 1e-12 * scale

    def test_unbounded_set_refused(self):
        with pytest.raises(ValueError, match="cannot maximize"):
            FeasibleSet.all_space(2).max_linear(np.ones(2))


# -- the farthest point of a set from a center --------------------------------

def reference_max_d(setup):
    """max_x d(x) by the per-set formulas ``ProxSetup.max_d`` had before it
    became max_bregman_from(origin)."""
    s = setup.set
    if s.kind == "box":
        far = np.where(np.abs(s.upper - setup.origin)
                       >= np.abs(s.lower - setup.origin), s.upper, s.lower)
        return setup.d(far)
    if s.kind == "ball":
        return 0.5 * (np.linalg.norm(s.center - setup.origin) + s.radius) ** 2
    best = 0.0
    for i in range(s.dim):
        v = np.zeros(s.dim)
        v[i] = s.scale
        best = max(best, setup.d(v))
    return best


@st.composite
def set_and_center(draw):
    """A box, ball or simplex, a center inside or (mostly) outside it, and
    a seed for drawing members."""
    fs, t, seed = draw(set_and_direction())
    inside = draw(st.booleans())
    center = random_member(fs, np.random.default_rng(seed)) if inside else t
    return fs, center, seed


class TestFarthestPoint:
    @settings(max_examples=300, deadline=None)
    @given(set_and_center())
    def test_max_d_is_the_old_formula(self, case):
        fs, origin, _ = case
        setup = euclidean_setup(fs, origin=origin)
        assert same_bits(setup.max_d(), reference_max_d(setup))

    @pytest.mark.parametrize("fs, origin, inside", [
        (FeasibleSet.box(np.full(3, -1.0), np.full(3, 2.0)), np.zeros(3),
         True),
        (FeasibleSet.box(np.full(3, -1.0), np.full(3, 2.0)),
         np.array([5.0, -4.0, 0.5]), False),
        (FeasibleSet.ball(np.ones(3), 1.5), np.ones(3), True),
        (FeasibleSet.ball(np.ones(3), 1.5), np.array([4.0, 0.0, -2.0]),
         False),
        (FeasibleSet.simplex(4, scale=2.0), np.full(4, 0.5), True),
        (FeasibleSet.simplex(4, scale=2.0), np.array([3.0, -1.0, 0.0, 7.0]),
         False),
    ], ids=["box-in", "box-out", "ball-in", "ball-out", "simplex-in",
            "simplex-out"])
    def test_max_d_inside_and_outside(self, fs, origin, inside):
        assert fs.contains(origin) == inside
        setup = euclidean_setup(fs, origin=origin)
        assert same_bits(setup.max_d(), reference_max_d(setup))

    def test_entropy_max_d_is_log_n(self):
        assert entropy_setup(7).max_d() == math.log(7)
        assert entropy_l1_ball_setup(3).max_d() == math.log(6)

    def test_entropy_theta0_sq_on_the_unit_simplex_only(self):
        """d = ln n + sum x ln x is max at a vertex: ln n on the unit simplex,
        more on a scaled one (ln 4 + 2 ln 2 at 2 e_1), where entropy is not
        1-strongly convex either.  There max_d raises and Theta_0^2 has no
        default."""
        for setup in (entropy_setup(4, 2.0), entropy_l1_ball_setup(3, 2.0)):
            vertex = np.zeros(setup.dim)
            vertex[0] = 2.0
            assert setup.d(vertex) > math.log(setup.dim) + 1.0
            assert setup.theta0_sq is None
            with pytest.raises(ValueError, match="unit simplex"):
                setup.max_d()
        assert entropy_setup(4, 2.0, theta0_sq=3.0).theta0_sq == 3.0
        for setup, n in ((entropy_setup(4), 4), (entropy_l1_ball_setup(3), 6)):
            assert same_bits(setup.theta0_sq, float(np.log(n)))
            assert same_bits(setup.max_d(), setup.theta0_sq)

    def test_max_d_refuses_all_space(self):
        with pytest.raises(ValueError, match="unbounded"):
            euclidean_setup(FeasibleSet.all_space(3)).max_d()

    @settings(max_examples=300, deadline=None)
    @given(set_and_center())
    def test_euclidean_bounds_every_member(self, case):
        fs, x0, seed = case
        setup = euclidean_setup(fs)
        value = setup.max_bregman_from(x0)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            v = setup.bregman(x0, random_member(fs, rng))
            assert value >= v - 1e-12 * (1.0 + v)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
    def test_entropy_bounds_every_member(self, n, l1_ball, seed):
        setup = entropy_l1_ball_setup(n) if l1_ball else entropy_setup(n)
        rng = np.random.default_rng(seed)
        x0 = rng.dirichlet(np.ones(setup.dim))
        x0 = np.maximum(x0, 1e-300) / np.maximum(x0, 1e-300).sum()
        value = setup.max_bregman_from(x0)
        members = [rng.dirichlet(np.full(setup.dim, a)) for a in (0.1, 1.0)]
        members += list(np.eye(setup.dim))
        for y in members:
            v = setup.bregman(x0, y)
            assert value >= v - 1e-9 * (1.0 + v)
