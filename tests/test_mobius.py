"""Tests for Mobius generators, composition, canonical maps, and domain images."""

import math

import numpy as np
import pytest

from hypmetrics.geometry import (
    BoundaryCardinalityError,
    FiniteComplement,
    INFINITY,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    cross_ratio,
    is_infinity,
)
from hypmetrics.mobius import (
    MobiusMap,
    Orthogonal,
    Scaling,
    SphereInversion,
    Translation,
    ball_automorphism,
    cayley_map,
    inversion_unit,
    map_domain,
)

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def _random_map(rng, n=3):
    gens = []
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 4)
        if kind == 0:
            gens.append(Translation(rng.normal(size=n)))
        elif kind == 1:
            gens.append(Scaling(10.0 ** rng.uniform(-1, 1)))
        elif kind == 2:
            q, r = np.linalg.qr(rng.normal(size=(n, n)))
            gens.append(Orthogonal(q * np.sign(np.diag(r))))
        else:
            gens.append(SphereInversion(rng.normal(size=n) * 2, 10.0 ** rng.uniform(-0.5, 0.5)))
    return MobiusMap(gens)


class TestGenerators:
    def test_translation(self):
        t = Translation([1.0, 2.0, 3.0])
        assert np.allclose(t.apply(np.zeros(3)), [1, 2, 3])
        assert is_infinity(t.apply(INFINITY))
        assert np.allclose(t.inverse().apply(t.apply(E1)), E1)

    def test_scaling(self):
        s = Scaling(2.5)
        assert np.allclose(s.apply(E1), 2.5 * E1)
        assert is_infinity(s.apply(INFINITY))
        with pytest.raises(ParameterError):
            Scaling(-1.0)
        with pytest.raises(ParameterError):
            Scaling(0.0)

    def test_orthogonal(self):
        q = np.array([[0.0, -1.0, 0], [1.0, 0.0, 0], [0, 0, 1.0]])
        o = Orthogonal(q)
        assert np.allclose(o.apply(E1), [0, 1, 0])
        assert np.allclose(o.inverse().apply(o.apply([0.3, 0.7, -0.1])), [0.3, 0.7, -0.1])
        with pytest.raises(ParameterError):
            Orthogonal(np.eye(3) * 2.0)

    def test_sphere_inversion_swaps_center_and_infinity(self):
        inv = SphereInversion(E1, 2.0)
        assert is_infinity(inv.apply(E1.copy()))
        assert np.allclose(inv.apply(INFINITY), E1)
        # involution
        p = np.array([0.3, -0.5, 0.9])
        assert np.allclose(inv.apply(inv.apply(p)), p, atol=1e-14)

    def test_sphere_inversion_fixes_its_sphere(self):
        inv = SphereInversion(np.zeros(3), 3.0)
        p = 3.0 * E3
        assert np.allclose(inv.apply(p), p)

    def test_inversion_radius_validation(self):
        with pytest.raises(ParameterError):
            SphereInversion(E1, 0.0)


class TestMobiusMap:
    def test_composition_order(self):
        f = MobiusMap([Scaling(2.0)])
        g = MobiusMap([Translation(E1)])
        h = MobiusMap(g.generators + f.generators)  # f after g
        assert np.allclose(h.apply(np.zeros(3)), 2.0 * E1)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            f = _random_map(rng)
            p = rng.normal(size=3)
            q = f.apply(p)
            if is_infinity(q):
                continue
            back = f.inverse().apply(q)
            assert np.allclose(back, p, atol=1e-9)

    def test_rejects_non_generators(self):
        with pytest.raises(ParameterError):
            MobiusMap([lambda p: p])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            MobiusMap([Translation([1.0, 0.0]), Translation([1.0, 0.0, 0.0])])

    def test_cross_ratio_invariance(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 40:
            f = _random_map(rng)
            pts = [rng.normal(size=3) * 2 for _ in range(4)]
            imgs = [f.apply(p) for p in pts]
            if any(is_infinity(q) for q in imgs):
                continue
            before = cross_ratio(*pts)
            after = cross_ratio(*imgs)
            assert after == pytest.approx(before, rel=1e-9)
            checked += 1


class TestCanonicalMaps:
    def test_ball_automorphism_sends_base_point_to_origin(self):
        a = np.array([0.3, -0.4, 0.2])
        f = ball_automorphism(a)
        assert np.allclose(f.apply(a), np.zeros(3), atol=1e-14)

    def test_ball_automorphism_known_images(self):
        f = ball_automorphism(0.75 * E1)
        assert f.apply(0.25 * E1)[0] == pytest.approx(8.0 / 13.0, abs=1e-15)
        assert f.apply(-0.25 * E1)[0] == pytest.approx(16.0 / 19.0, abs=1e-15)

    def test_ball_automorphism_preserves_the_ball(self):
        rng = np.random.default_rng(23)
        f = ball_automorphism(np.array([0.1, 0.6, -0.2]))
        ball = UnitBall(3)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3) * 0.57
            if not ball.contains(x):
                continue
            assert ball.contains(f.apply(x))

    def test_ball_automorphism_validation(self):
        with pytest.raises(ParameterError):
            ball_automorphism(np.zeros(3))
        with pytest.raises(ParameterError):
            ball_automorphism(E1)

    def test_cayley_map_known_values(self):
        f = cayley_map(3)
        assert np.allclose(f.apply(E3), np.zeros(3), atol=1e-15)
        assert f.apply(2.0 * E3)[-1] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_cayley_maps_halfspace_into_ball(self):
        rng = np.random.default_rng(24)
        f = cayley_map(3)
        half, ball = UpperHalfSpace(3), UnitBall(3)
        for _ in range(50):
            x = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-2, 2)])
            assert half.contains(x)
            assert ball.contains(f.apply(x))

    def test_inversion_unit_value(self):
        f = inversion_unit(3)
        assert np.allclose(f.apply(E1 + E3), [0.5, 0.0, 0.5], atol=1e-15)

    def test_inversion_unit_preserves_halfspace(self):
        rng = np.random.default_rng(25)
        f = inversion_unit(3)
        half = UpperHalfSpace(3)
        for _ in range(50):
            x = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-2, 2)])
            assert half.contains(f.apply(x))


class TestMapDomain:
    def test_translation_keeps_flag(self):
        d = FiniteComplement(3, [E1])
        img = map_domain(MobiusMap([Translation(E3)]), d)
        assert np.allclose(img.removed[0], E1 + E3)
        assert img.includes_infinity_boundary

    def test_inversion_exchanges_puncture_and_infinity(self):
        d = FiniteComplement(3, [np.zeros(3)])
        img = map_domain(inversion_unit(3), d)
        # 0 goes to infinity (flag), infinity comes back as 0
        assert img.includes_infinity_boundary
        assert len(img.removed) == 1 and np.allclose(img.removed[0], np.zeros(3))

    def test_unflagged_domain_can_lose_all_finite_boundary(self):
        d = FiniteComplement(3, [np.zeros(3)], includes_infinity_boundary=False)
        with pytest.raises(BoundaryCardinalityError):
            map_domain(inversion_unit(3), d)

    def test_only_finite_complements_are_supported(self):
        with pytest.raises(ParameterError):
            map_domain(inversion_unit(3), UnitBall(3))

    def test_membership_transport(self):
        rng = np.random.default_rng(26)
        d = FiniteComplement(3, [E1, -E1])
        f = _random_map(rng)
        img = map_domain(f, d)
        for _ in range(40):
            x = rng.normal(size=3) * 3
            if not d.contains(x):
                continue
            fx = f.apply(x)
            if is_infinity(fx):
                continue
            assert img.contains(fx)
