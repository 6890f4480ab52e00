"""Properties every manifold implementation must satisfy beyond criterion 4
of ``test_acceptance.py``, which owns the transport isometry, the
exp-velocity check, the hinge inequality and the sphere's unit drift: the
distance axioms, the one table of ``check_point`` verdicts, the
``max_step`` certificate and ``exp_transport``'s closed forms."""

import math

import numpy as np
import pytest

from adgd import linalg
from adgd.errors import DomainError
from adgd.manifolds import BuresWasserstein, BWTangent, Euclidean, Manifold, PositiveOrthant, Sphere

from conftest import assert_floor_sound, bits, random_sphere_tangent, random_spd, random_sym, random_unit


def sphere_sample(rng, scale=1.0):
    x = random_unit(rng, 5)
    v = random_sphere_tangent(rng, x, scale)
    w = random_sphere_tangent(rng, x, scale)
    return x, v, w


def orthant_sample(rng, scale=1.0):
    x = rng.uniform(0.2, 3.0, size=5)
    return x, rng.standard_normal(5) * scale, rng.standard_normal(5) * scale


def bw_sample(bw, rng, scale=0.3):
    n = int(rng.integers(2, 6))
    x = random_spd(rng, n)
    v = BWTangent(random_sym(rng, n, scale))
    cap = bw.max_step(x, v)
    if cap <= 1.2:
        v = (0.5 * cap) * v
    return x, v


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
            m, make = Euclidean(), lambda: rng.standard_normal(5)
        for _ in range(20):
            x, y = make(), make()
            got = m.distance(x, y)
            assert type(got) is float
            assert bits(got) == bits(m.distance_from(x)([y])[0])
        # Each implements distance_from; none keeps a distance of its own
        # (test_only_the_base_class_defines_distance).
        assert "distance_from" in type(m).__dict__


MANIFOLDS = {"sphere": Sphere, "orthant": PositiveOrthant, "bw": BuresWasserstein}
_UNIT_RNG, _SPD_RNG = np.random.default_rng(24), np.random.default_rng(23)

# Every point whose check_point verdict the suite pins, ill-conditioned
# ones included: (manifold, id, point, None if accepted or the ValueError's
# message match).
POINTS = [
    ("sphere", "e0", np.array([1.0, 0.0, 0.0]), None),
    ("sphere", "oblique", np.array([0.6, 0.8, 0.0]), None),
    ("sphere", "minus-e0", np.array([-1.0, 0.0, 0.0]), None),
    ("sphere", "tiny-entry", np.array([0.0, 1.0, 1e-300]), None),
    ("sphere", "long-1e-11", np.array([1.0 + 1e-11, 0.0, 0.0]), None),
    ("sphere", "long-5e-11", np.array([1.0 + 5e-11, 0.0]), None),
    *[("sphere", f"random-{n}", random_unit(_UNIT_RNG, n), None) for n in (1, 2, 10, 100)],
    ("sphere", "scaled", 3.0 * np.eye(3)[0], "unit norm"),
    ("sphere", "long", np.array([1.0 + 2e-10, 0.0, 0.0]), "unit norm"),
    ("sphere", "short", np.array([1.0 - 2e-10, 0.0, 0.0]), "unit norm"),
    ("sphere", "zero", np.array([0.0, 0.0, 0.0]), "unit norm"),
    ("sphere", "overflow", np.array([1e200, 0.0, 0.0]), "unit norm"),
    ("sphere", "nan", np.array([math.nan, 0.0, 0.0]), "finite vector"),
    ("sphere", "nan-last", np.array([1.0, 0.0, math.nan]), "finite"),
    ("sphere", "minus-inf", np.array([1.0, -math.inf, 0.0]), "finite"),
    ("sphere", "matrix", np.eye(2), "finite vector"),
    ("orthant", "ones", np.ones(3), None),
    ("orthant", "ramp", np.array([1.0, 2.0, 3.0]), None),
    ("orthant", "extremes", np.array([1e-300, 1.0, 1e300]), None),
    ("orthant", "subnormal", np.array([5e-324, 1.0, 1.0]), None),
    *[
        ("orthant", name, np.array([entry, 1.0, 1.0]), "finite positive entries")
        for name, entry in [("zero", 0.0), ("negative", -1.0), ("nan", math.nan), ("inf", math.inf)]
    ],
    *[
        ("orthant", f"{name}-last", np.array([1.0, entry]), "finite positive entries")
        for name, entry in [
            ("zero", 0.0), ("negzero", -0.0), ("negative", -1.0), ("inf", math.inf), ("nan", math.nan)
        ]
    ],
    ("bw", "identity", np.eye(2), None),
    ("bw", "cond-1e13", np.diag([1.0, 1e-13]), None),
    ("bw", "tiny-diagonal", np.diag([1e-20, 1e-33]), None),
    ("bw", "cond-1e300", np.diag([1.0, 1e-300]), None),
    ("bw", "subnormal", np.diag([1.0, 5e-324]), None),
    ("bw", "coupled", np.array([[2.0, 1.0], [1.0, 2.0]]), None),
    ("bw", "near-singular", np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]), None),
    ("bw", "skewed", np.array([[4.0, 1.0], [1.0, 0.5]]), None),
    ("bw", "tiny-identity", 1e-300 * np.eye(3), None),  # the exact Cholesky decides
    *[("bw", f"random-{n}", random_spd(_SPD_RNG, n), None) for n in (1, 2, 5, 20)],
    # Symmetric within check_symmetric's tolerance, not bit for bit.
    ("bw", "near-symmetric", np.array([[3.0, 1.0], [1.0 + 2.0**-52, 3.0]]), None),
    ("bw", "singular-2", np.diag([1.0, 0.0]), "positive definite"),
    ("bw", "singular-last", np.diag([1.0, 1.0, 0.0]), "positive definite"),
    ("bw", "singular", np.diag([1.0, 0.0, 1.0]), "positive definite"),
    ("bw", "indefinite", np.diag([1.0, -1e-3]), "positive definite"),
    ("bw", "negative", -np.eye(3), "positive definite"),
    ("bw", "nan", np.array([[math.nan, 0.0], [0.0, 1.0]]), "NaN or infinite"),
    ("bw", "nan-3", np.diag([1.0, math.nan, 1.0]), "NaN or infinite"),
    ("bw", "inf-3", np.diag([1.0, math.inf, 1.0]), "NaN or infinite"),
    ("bw", "asymmetric-2", np.array([[2.0, 1.0], [0.0, 2.0]]), "not symmetric"),
    ("bw", "asymmetric-half", np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not symmetric"),
    ("bw", "asymmetric", np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), "not symmetric"),
]


def _params(rows):
    return [pytest.param(case, x, match, id=f"{case}-{name}") for case, name, x, match in rows]


class TestCheckPoint:
    """``check_point`` is the one check on a point from outside: ``_drive``
    asks it of ``x0`` and of the optimum, ``distance`` of both its points.
    An accepted point's return value is its floor: None off
    Bures-Wasserstein, and there a sound bound on its smallest eigenvalue
    (-inf where the seed certifies nothing)."""

    @pytest.mark.parametrize("case, x, match", _params(POINTS))
    def test_verdict(self, case, x, match):
        m = MANIFOLDS[case]()
        if match is None:
            floor = m.check_point(x)
            if case == "bw":
                assert_floor_sound(x, floor)
            else:
                assert floor is None
        else:
            with pytest.raises(ValueError, match=match):
                m.check_point(x)


class TestDistanceChecksItsPoints:
    """``distance`` sends both points through ``check_point``, the check
    ``_drive`` asks of ``x0``, and raises its ValueError."""

    @pytest.mark.parametrize("case, bad, match", _params(p for p in POINTS if p[3] is not None))
    def test_off_manifold_point_raises(self, case, bad, match):
        m = MANIFOLDS[case]()
        good = next(p[2] for p in POINTS if p[0] == case and p[3] is None)
        with pytest.raises(ValueError) as raised:
            m.check_point(bad)
        message = str(raised.value)
        for x, y in ((good, bad), (bad, good)):
            with pytest.raises(ValueError) as got:
                m.distance(x, y)
            assert str(got.value) == message

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ValueError:
            return None

    @pytest.mark.parametrize("case", sorted(MANIFOLDS))
    def test_refuses_symmetrically(self, case):
        # distance(x, y) raises exactly when distance(y, x) does.  The sphere
        # and orthant values agree bit for bit; BW's closed form takes a
        # root of one point or the other, and a root of an eigenvalue known
        # to eps ||X|| is known to sqrt(eps ||X||), so the two orders agree
        # to a few sqrt(eps) relative, not to a few eps.
        m = MANIFOLDS[case]()
        pts = [x for c, _, x, _ in POINTS if c == case]
        for x in pts:
            for y in (y for y in pts if y.shape == x.shape):
                there = self._outcome(lambda: m.distance(x, y))
                back = self._outcome(lambda: m.distance(y, x))
                assert (there is None) == (back is None)
                if there is None:
                    continue
                if case == "bw":
                    assert abs(there - back) <= 1e-7 * max(there, back)
                else:
                    assert bits(there) == bits(back)

    def test_ill_conditioned_bw_distance_both_ways(self):
        # Condition 1e13: both orders take require_spd's word for the point.
        m = BuresWasserstein()
        there = m.distance(np.eye(2), np.diag([1.0, 1e-13]))
        back = m.distance(np.diag([1.0, 1e-13]), np.eye(2))
        assert abs(there - back) <= 1e-12 * there

    def test_spd_sqrt_refuses_what_check_point_refuses(self):
        # One positive-definiteness rule for points: a point has a root
        # exactly when check_point accepts it (DomainError is a ValueError).
        for case, _, x, match in POINTS:
            if case == "bw":
                assert (self._outcome(lambda: linalg.spd_sqrt(x)) is not None) == (match is None)

    def test_only_the_base_class_defines_distance(self):
        classes = [Manifold]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        assert {Sphere, PositiveOrthant, BuresWasserstein, Euclidean} <= set(classes)
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
            samples = (bw_sample(m, rng, scale=3.0) for _ in range(50))
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
        m = Euclidean()
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
    """``exp_transport`` is each manifold's one exponential: its point,
    flag and transport match the closed forms, and ``exp`` and
    ``transport_along_step`` are its parts, bit for bit."""

    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw", "flat"])
    def test_equals_exp_and_transport_bit_for_bit(self, case):
        rng = np.random.default_rng(109)
        clamped_seen = False
        for m, x, v, ws in _exp_transport_cases(case, rng):
            y, clamped, transport, _ = m.exp_transport(x, v)
            assert bits(y) == bits(m.exp(x, v))
            clamped_seen |= clamped
            # Past the orthant's clamp a transported entry overflows to inf,
            # in both forms alike; the descent loop ignores the warning too.
            with np.errstate(over="ignore"):
                for w in ws:
                    assert bits(transport(w)) == bits(m.transport_along_step(x, v, w))
        assert clamped_seen == (case == "orthant")

    @pytest.mark.parametrize("case", ["sphere", "orthant", "bw", "flat"])
    def test_matches_closed_form(self, case):
        rng = np.random.default_rng(111)
        for m, x, v, ws in _exp_transport_cases(case, rng):
            y, clamped, transport, _ = m.exp_transport(x, v)
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
