"""Properties every manifold implementation must satisfy: transport is a
linear isometry, transport of the step's own velocity matches the
derivative of the exponential, the nonnegative-curvature hinge inequality,
and basic distance axioms."""

import math

import numpy as np
import pytest

from adgd import linalg, optimizers
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, BWTangent, Manifold, PositiveOrthant, Sphere

from conftest import random_sphere_tangent, random_spd, random_sym, random_unit


def sphere_sample(rng, scale=1.0):
    x = random_unit(rng, 5)
    v = random_sphere_tangent(rng, x, scale)
    w = random_sphere_tangent(rng, x, scale)
    return x, v, w


def orthant_sample(rng, scale=1.0):
    x = rng.uniform(0.2, 3.0, size=5)
    return x, rng.standard_normal(5) * scale, rng.standard_normal(5) * scale


def bw_sample(bw, rng, scale=0.3):
    # w collinear with v: the only transport case the descent loop uses,
    # and the only one with a closed form here.
    n = int(rng.integers(2, 6))
    x = random_spd(rng, n)
    v = BWTangent(random_sym(rng, n, scale))
    cap = bw.max_step(x, v)
    if cap <= 1.2:
        v = (0.5 * cap) * v
    w = float(rng.uniform(0.3, 2.0)) * v
    return x, v, w


class TestTransportIsometry:
    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw"])
    def test_norm_preserved(self, case):
        rng = np.random.default_rng(100)
        count = 500
        if case == "sphere":
            m = Sphere()
            samples = (sphere_sample(rng) for _ in range(count))
        elif case == "orthant":
            m = PositiveOrthant()
            samples = (orthant_sample(rng) for _ in range(count))
        else:
            m = BuresWasserstein()
            samples = (bw_sample(m, rng) for _ in range(count))
        for x, v, w in samples:
            y = m.exp(x, v)
            before = m.norm(x, w)
            after = m.norm(y, m.transport_along_step(x, v, w))
            assert abs(after - before) <= 1e-9 * (1.0 + before)


class TestTransportEqualsExpVelocity:
    # P(v) along t -> exp(x, t v) must equal d/dt exp(x, t v) at t = 1,
    # checked by centered differences.

    def _check(self, m, x, v, to_array=lambda t: t, h=1e-4, tol=1e-5):
        transported = to_array(m.transport_along_step(x, v, v))
        plus = m.exp(x, (1.0 + h) * v)
        minus = m.exp(x, (1.0 - h) * v)
        fd = (plus - minus) / (2.0 * h)
        assert np.linalg.norm(np.asarray(transported) - fd) <= tol * (
            1.0 + np.linalg.norm(fd)
        )

    def test_sphere(self):
        m = Sphere()
        rng = np.random.default_rng(101)
        for _ in range(50):
            x = random_unit(rng, 4)
            v = random_sphere_tangent(rng, x)
            self._check(m, x, v)

    def test_orthant(self):
        m = PositiveOrthant()
        rng = np.random.default_rng(102)
        for _ in range(50):
            x = rng.uniform(0.3, 2.0, size=4)
            v = rng.standard_normal(4)
            self._check(m, x, v)

    def test_bures_wasserstein(self):
        m = BuresWasserstein()
        rng = np.random.default_rng(103)
        for _ in range(50):
            x = random_spd(rng, 4)
            v = BWTangent(random_sym(rng, 4, scale=0.2))
            if m.max_step(x, v) <= 1.2:
                v = (0.5 * m.max_step(x, v)) * v
            self._check(m, x, v, to_array=lambda t: t.mat)


class TestHingeInequality:
    # Nonnegative curvature: endpoints of two geodesics from the same point
    # are no farther apart than the initial velocities.

    def test_sphere(self):
        m = Sphere()
        rng = np.random.default_rng(104)
        for _ in range(200):
            x = random_unit(rng, 5)
            v1 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
            v2 = random_sphere_tangent(rng, x, rng.uniform(0.1, 1.0))
            lhs = m.distance(m.exp(x, v1), m.exp(x, v2))
            assert lhs <= m.norm(x, v1 - v2) + 1e-8

    def test_bures_wasserstein(self):
        m = BuresWasserstein()
        rng = np.random.default_rng(105)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 5))
            x = random_spd(rng, n)
            v1 = BWTangent(random_sym(rng, n, scale=0.2))
            v2 = BWTangent(random_sym(rng, n, scale=0.2))
            if min(m.max_step(x, v1), m.max_step(x, v2)) <= 1.05:
                continue
            lhs = m.distance(m.exp(x, v1), m.exp(x, v2))
            rhs = m.norm(x, v1 - v2)
            assert lhs <= rhs + 1e-8
            done += 1


class TestDistanceAxioms:
    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw"])
    def test_zero_and_symmetric(self, case):
        rng = np.random.default_rng(106)
        if case == "sphere":
            m = Sphere()
            pts = [random_unit(rng, 5) for _ in range(10)]
        elif case == "orthant":
            m = PositiveOrthant()
            pts = [rng.uniform(0.2, 3.0, size=5) for _ in range(10)]
        else:
            m = BuresWasserstein()
            pts = [random_spd(rng, 4) for _ in range(10)]
        for p in pts:
            assert m.distance(p, p) == 0.0
            assert m.distance(p, p.copy()) == 0.0
            assert m.distance_from(p)([p, p.copy()]) == [0.0, 0.0]
        for p, q in zip(pts[::2], pts[1::2]):
            assert abs(m.distance(p, q) - m.distance(q, p)) <= 1e-10
            assert m.distance(p, q) >= 0.0

    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw", "flat"])
    def test_distance_is_the_one_point_column(self, case):
        # Each manifold implements one distance, distance_from; distance(x, y)
        # is its one-point case, bit for bit.
        rng = np.random.default_rng(107)
        if case == "sphere":
            m, make = Sphere(), lambda: random_unit(rng, 5)
        elif case == "orthant":
            m, make = PositiveOrthant(), lambda: rng.uniform(0.2, 3.0, size=5)
        elif case == "bw":
            m, make = BuresWasserstein(), lambda: random_spd(rng, 4)
        else:
            m, make = optimizers._FlatSpace(), lambda: rng.standard_normal(5)
        for _ in range(20):
            x, y = make(), make()
            got = m.distance(x, y)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(m.distance_from(x)([y])[0]).tobytes()
        # Each implements distance_from; none keeps a distance of its own
        # (test_only_the_base_class_defines_distance).
        assert "distance_from" in type(m).__dict__


class TestDistanceChecksItsPoints:
    """``distance`` sends both points through ``check_point``, the check
    ``_drive`` asks of ``x0``, and raises its ValueError."""

    @pytest.mark.parametrize(
        "case, bad",
        [
            ("sphere", 3.0 * np.eye(3)[0]),
            ("sphere", np.array([math.nan, 0.0, 0.0])),
            ("orthant", np.array([-1.0, 1.0, 1.0])),
            ("bw", -np.eye(3)),
            ("bw", np.diag([1.0, 0.0, 1.0])),
            ("bw", np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])),
        ],
        ids=["sphere-scaled", "sphere-nan", "orthant-negative", "bw-negative", "bw-singular", "bw-asymmetric"],
    )
    def test_off_manifold_point_raises(self, case, bad):
        m = {"sphere": Sphere, "orthant": PositiveOrthant, "bw": BuresWasserstein}[case]()
        good = np.eye(3)[0] if case == "sphere" else (np.ones(3) if case == "orthant" else np.eye(3))
        m.check_point(good)
        with pytest.raises(ValueError) as raised:
            m.check_point(bad)
        message = str(raised.value)
        for x, y in ((good, bad), (bad, good)):
            with pytest.raises(ValueError) as got:
                m.distance(x, y)
            assert str(got.value) == message

    # Points each manifold accepts or refuses, ill-conditioned ones included.
    POINT_SETS = {
        "sphere": [
            np.array([1.0, 0.0, 0.0]),
            np.array([0.6, 0.8, 0.0]),
            np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 1e-300]),
            np.array([1.0 + 1e-11, 0.0, 0.0]),
            3.0 * np.eye(3)[0],
            np.array([math.nan, 0.0, 0.0]),
        ],
        "orthant": [
            np.ones(3),
            np.array([1.0, 2.0, 3.0]),
            np.array([1e-300, 1.0, 1e300]),
            np.array([5e-324, 1.0, 1.0]),
            np.array([0.0, 1.0, 1.0]),
            np.array([-1.0, 1.0, 1.0]),
            np.array([math.nan, 1.0, 1.0]),
            np.array([math.inf, 1.0, 1.0]),
        ],
        "bw": [
            np.eye(2),
            np.diag([1.0, 1e-13]),
            np.diag([1e-20, 1e-33]),
            np.diag([1.0, 1e-300]),
            np.diag([1.0, 5e-324]),
            np.array([[2.0, 1.0], [1.0, 2.0]]),
            np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]),
            np.array([[4.0, 1.0], [1.0, 0.5]]),
            np.diag([1.0, 0.0]),
            np.diag([1.0, -1e-3]),
            np.array([[math.nan, 0.0], [0.0, 1.0]]),
            np.array([[2.0, 1.0], [0.0, 2.0]]),
        ],
    }

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ValueError:
            return None

    @pytest.mark.parametrize("case", sorted(POINT_SETS))
    def test_refuses_symmetrically(self, case):
        # distance(x, y) raises exactly when distance(y, x) does.  The sphere
        # and orthant values agree bit for bit; BW's closed form takes a
        # root of one point or the other, and a root of an eigenvalue known
        # to eps ||X|| is known to sqrt(eps ||X||), so the two orders agree
        # to a few sqrt(eps) relative, not to a few eps.
        m = {"sphere": Sphere, "orthant": PositiveOrthant, "bw": BuresWasserstein}[case]()
        pts = self.POINT_SETS[case]
        for x in pts:
            for y in pts:
                there = self._outcome(lambda: m.distance(x, y))
                back = self._outcome(lambda: m.distance(y, x))
                assert (there is None) == (back is None)
                if there is None:
                    continue
                if case == "bw":
                    assert abs(there - back) <= 1e-7 * max(there, back)
                else:
                    assert np.float64(there).tobytes() == np.float64(back).tobytes()

    def test_ill_conditioned_bw_distance_both_ways(self):
        # Condition 1e13: both orders take require_spd's word for the point.
        m = BuresWasserstein()
        there = m.distance(np.eye(2), np.diag([1.0, 1e-13]))
        back = m.distance(np.diag([1.0, 1e-13]), np.eye(2))
        assert abs(there - back) <= 1e-12 * there

    def test_spd_sqrt_refuses_what_check_point_refuses(self):
        # One positive-definiteness rule for points: a point has a root
        # exactly when check_point accepts it (DomainError is a ValueError).
        m = BuresWasserstein()
        for x in self.POINT_SETS["bw"]:
            accepted = self._outcome(lambda: m.check_point(x) or True) is not None
            assert (self._outcome(lambda: linalg.spd_sqrt(x)) is not None) == accepted

    def test_only_the_base_class_defines_distance(self):
        classes = [Manifold]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        assert {Sphere, PositiveOrthant, BuresWasserstein, optimizers._FlatSpace} <= set(classes)
        assert [cls for cls in classes if "distance" in cls.__dict__] == [Manifold]


class TestMaxStepLowerBound:
    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw"])
    def test_certifies_only_admissible_steps(self, case):
        rng = np.random.default_rng(108)
        if case == "sphere":
            m = Sphere()
            samples = (sphere_sample(rng)[:2] for _ in range(50))
        elif case == "orthant":
            m = PositiveOrthant()
            samples = (orthant_sample(rng)[:2] for _ in range(50))
        else:
            m = BuresWasserstein()
            samples = (bw_sample(m, rng, scale=3.0)[:2] for _ in range(50))
        passed = 0
        for x, v in samples:
            cap = m.max_step(x, v)
            steps = [0.0, 0.1, 1.0, 10.0, math.inf]
            if math.isfinite(cap):
                steps += [rel * cap for rel in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)]
            for t in steps:
                if m.max_step_lower_bound(x, v, t):
                    passed += 1
                    assert t <= cap, (t, cap)
        assert passed > 0


class TestCurvatureClasses:
    def test_max_step_finite_only_on_incomplete(self):
        rng = np.random.default_rng(107)
        sphere = Sphere()
        x = random_unit(rng, 4)
        assert sphere.max_step(x, random_sphere_tangent(rng, x)) == math.inf
        orthant = PositiveOrthant()
        assert orthant.max_step(np.ones(3), rng.standard_normal(3)) == math.inf
        bw = BuresWasserstein()
        xs = random_spd(rng, 3)
        g = bw.egrad_to_rgrad(xs, random_sym(rng, 3, scale=2.0))
        caps = [bw.max_step(xs, s * g) for s in (1.0, -1.0)]
        assert min(caps) < math.inf


def _bits(value):
    """An array's (or a Bures-Wasserstein tangent matrix's) bit pattern."""
    arr = np.asarray(getattr(value, "mat", value), dtype=float)
    return arr.shape, arr.tobytes()


def _exp_transport_cases(case, rng):
    """``(manifold, x, v, ws)`` with each ``w`` collinear with the step ``v``,
    plus a zero step and, per manifold, the step at its limit."""
    if case == "bw":
        m = BuresWasserstein()
        out = []
        for _ in range(30):
            n = int(rng.integers(1, 7))
            x = random_spd(rng, n)
            grad = m.egrad_to_rgrad(x, random_sym(rng, n, scale=2.0))
            if m.max_step(x, (-1.0) * grad) == math.inf:
                grad = (-1.0) * grad
            cap = m.max_step(x, (-1.0) * grad)
            alpha = float(rng.uniform(0.05, 0.95)) * min(cap, 1.0)
            out.append((m, x, (-alpha) * grad, [grad, BWTangent(2.5 * grad.mat)]))
            if cap < math.inf:
                out.append((m, x, (-0.99 * cap) * grad, [grad]))
        x = random_spd(rng, 3)
        grad = m.egrad_to_rgrad(x, random_sym(rng, 3))
        out.append((m, x, BWTangent(np.zeros((3, 3))), [grad, BWTangent(np.zeros((3, 3)))]))
        step = min(1.0, 0.5 * m.max_step(x, 0.3 * grad)) * (0.3 * grad)
        out.append((m, x, step, [BWTangent(np.zeros((3, 3)))]))
        return out
    if case == "sphere":
        m = Sphere()
        samples = [sphere_sample(rng, scale) for scale in (1e-13, 0.1, 1.0, 3.0) for _ in range(5)]
        x = random_unit(rng, 5)
        samples.append((x, np.zeros(5), random_sphere_tangent(rng, x)))
    elif case == "orthant":
        m = PositiveOrthant()
        samples = [orthant_sample(rng) for _ in range(20)]
        x = rng.uniform(0.2, 3.0, size=5)
        samples.append((x, np.zeros(5), rng.standard_normal(5)))
        samples.append((x, np.array([1e6, -1e6, 1.0, 0.0, 701.0]) * x, rng.standard_normal(5)))
    else:
        m = optimizers._FlatSpace()
        samples = [orthant_sample(rng) for _ in range(20)]
        samples.append((np.ones(5), np.zeros(5), rng.standard_normal(5)))
    return [(m, x, v, [w, float(rng.uniform(-2.0, 2.0)) * v]) for x, v, w in samples]


def _closed_form(case, x, v, w):
    """``(exp(x, v), clamped, transport of w)`` written out per manifold."""
    if case == "sphere":
        nv = float(np.linalg.norm(v))
        if nv < 1e-12:
            return x, False, w
        u = v / nv
        y = math.cos(nv) * x + math.sin(nv) * u
        a = float(np.dot(w, u))
        return y, False, w + a * (-math.sin(nv) * x + (math.cos(nv) - 1.0) * u)
    if case == "orthant":
        z = v / x
        y = x * np.exp(np.clip(z, -700.0, 700.0))
        return y, bool(np.any(np.abs(z) > 700.0)), w * (y / x)
    if case == "flat":
        return x + v, False, w
    fac = linalg.solve_lyapunov(x, v.mat)
    lxl = fac @ x @ fac
    y = x + v.mat + lxl
    ww = float(np.sum(w.mat * w.mat))
    if ww == 0.0 or not v.mat.any():
        return y, False, w.mat
    c = float(np.sum(v.mat * w.mat)) / ww
    return y, False, w.mat + (2.0 / c) * lxl


class TestExpTransport:
    """``exp_transport`` is each manifold's one exponential: its triple
    matches the closed forms, and ``exp`` and ``transport_along_step`` are
    its parts, bit for bit."""

    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw", "flat"])
    def test_equals_exp_and_transport_bit_for_bit(self, case):
        rng = np.random.default_rng(109)
        clamped_seen = False
        for m, x, v, ws in _exp_transport_cases(case, rng):
            y, clamped, transport = m.exp_transport(x, v)
            assert _bits(y) == _bits(m.exp(x, v))
            clamped_seen |= clamped
            # Past the orthant's clamp a transported entry overflows to inf,
            # in both forms alike; the descent loop ignores the warning too.
            with np.errstate(over="ignore"):
                for w in ws:
                    assert _bits(transport(w)) == _bits(m.transport_along_step(x, v, w))
        assert clamped_seen == (case == "orthant")

    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw", "flat"])
    def test_matches_closed_form(self, case):
        rng = np.random.default_rng(111)
        for m, x, v, ws in _exp_transport_cases(case, rng):
            y, clamped, transport = m.exp_transport(x, v)
            with np.errstate(over="ignore", invalid="ignore"):
                for w in ws:
                    y_ref, clamped_ref, pw_ref = _closed_form(case, x, v, w)
                    assert clamped == clamped_ref
                    scale = 1.0 + float(np.max(np.abs(y_ref)))
                    np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * scale)
                    pw = transport(w)
                    pw = getattr(pw, "mat", pw)
                    scale = 1.0 + float(np.max(np.abs(np.nan_to_num(pw_ref, posinf=0.0))))
                    np.testing.assert_allclose(pw, pw_ref, rtol=1e-12, atol=1e-12 * scale)

    def test_bw_non_collinear_raises_the_same_domain_error(self):
        rng = np.random.default_rng(110)
        bw = BuresWasserstein()
        x = random_spd(rng, 4)
        v = BWTangent(random_sym(rng, 4, scale=0.1))
        w = BWTangent(random_sym(rng, 4, scale=0.1))
        transport = bw.exp_transport(x, v)[2]
        messages = []
        for call in (lambda: transport(w), lambda: bw.transport_along_step(x, v, w)):
            with pytest.raises(DomainError) as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "collinear" in messages[0]
