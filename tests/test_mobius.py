"""Tests for Mobius generators, composition, canonical maps, and domain images."""

import math
import warnings

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
# a rotation by 0.7, whose image of [-1.7e308, 1.7e308] is beyond the float range
_ROTATION = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])


def _inverse(g):
    """Inverse of a generator or of a MobiusMap: a test-local reference."""
    if isinstance(g, MobiusMap):
        return MobiusMap(tuple(_inverse(h) for h in reversed(g.generators)))
    if isinstance(g, Translation):
        return Translation(-g.b)
    if isinstance(g, Scaling):
        return Scaling(1.0 / g.factor)
    if isinstance(g, Orthogonal):
        return Orthogonal(g.matrix.T)
    return g  # a sphere inversion is an involution


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
        assert np.allclose(_inverse(t).apply(t.apply(E1)), E1)

    def test_scaling(self):
        s = Scaling(2.5)
        assert np.allclose(s.apply(E1), 2.5 * E1)
        assert is_infinity(s.apply(INFINITY))
        with pytest.raises(ParameterError):
            Scaling(-1.0)
        with pytest.raises(ParameterError):
            Scaling(0.0)

    @pytest.mark.parametrize("factor", ["2", [2], 2j, None], ids=repr)
    def test_scaling_factor_must_be_real(self, factor):
        with pytest.raises(ParameterError, match="^scaling factor must be a real number, got "):
            Scaling(factor)

    def test_real_kinds_of_scaling_factor_and_radius_are_floats(self):
        for v in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
            assert type(Scaling(v).factor) is float and Scaling(v).factor == 2.0
            assert type(SphereInversion(E1, v).radius) is float and SphereInversion(E1, v).radius == 2.0

    @pytest.mark.parametrize("radius", ["1.5", [1.5], 1.5j, None], ids=repr)
    def test_inversion_radius_must_be_real(self, radius):
        with pytest.raises(ParameterError, match="^inversion radius must be a real number, got "):
            SphereInversion([0.0, 0.0], radius)

    @pytest.mark.parametrize(
        "matrix",
        [[["1", "0"], ["0", "1"]], np.eye(2, dtype=complex), np.array([[1.0, "0"], [0.0, 1.0]], dtype=object)],
        ids=["str", "complex", "object"],
    )
    def test_orthogonal_matrix_must_be_real(self, matrix):
        # an object array is refused only where an entry is not a real number, as a point is
        with pytest.raises(ParameterError, match="^orthogonal generator needs a matrix of real numbers, got "):
            Orthogonal(matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_a_non_finite_orthogonal_entry_is_named_without_a_warning(self, bad):
        # NaN read as "not orthogonal", and inf raised numpy's RuntimeWarning under -W error
        q = np.eye(3)
        q[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"^orthogonal generator needs finite entries, got \[\[1\.0, "):
                Orthogonal(q)

    @pytest.mark.parametrize(
        "matrix",
        # 10**30 does not fit an int64, so it arrives as a Python int of an
        # object array; 1e200 overflows the Gram matrix
        [[[10**30, 0], [0, 1]], [[1e200, 0.0], [0.0, 1.0]]],
        ids=["huge-int", "huge-float"],
    )
    def test_a_matrix_of_huge_entries_is_not_orthogonal_without_a_warning(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^matrix is not orthogonal$"):
                Orthogonal(matrix)

    @pytest.mark.parametrize("dtype", [bool, int, float, object])
    def test_orthogonal_matrix_of_a_real_kind_is_taken_as_floats(self, dtype):
        q = Orthogonal(np.eye(3).astype(dtype)).matrix
        assert q.dtype == np.float64 and (q == np.eye(3)).all()


    def test_orthogonal(self):
        q = np.array([[0.0, -1.0, 0], [1.0, 0.0, 0], [0, 0, 1.0]])
        o = Orthogonal(q)
        assert np.allclose(o.apply(E1), [0, 1, 0])
        assert np.allclose(_inverse(o).apply(o.apply([0.3, 0.7, -0.1])), [0.3, 0.7, -0.1])
        with pytest.raises(ParameterError):
            Orthogonal(np.eye(3) * 2.0)

    @staticmethod
    def _accepts(q):
        try:
            Orthogonal(q)
        except ParameterError:
            return False
        return True

    def test_orthogonality_check_agrees_with_allclose(self):
        """Accepts and rejects exactly as np.allclose(q.T @ q, I,
        atol=1e-10): rotations, Gram entries one ulp inside and outside
        1e-10 off the diagonal and 1e-5 on it, NaN and inf entries."""
        rng = np.random.default_rng(11)
        cases = []
        for n in (2, 3, 5):
            for _ in range(20):
                q, r = np.linalg.qr(rng.standard_normal((n, n)))
                cases.append(q * np.sign(np.diag(r)))
        # q = [[1, e], [0, 1]] has the Gram off-diagonal entry e exactly
        for e in (1e-10, -1e-10, 2e-10):
            for t in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0 * e)):
                cases.append(np.array([[1.0, t], [0.0, 1.0]]))
        # q = diag(s, 1) has the Gram diagonal entry fl(s^2); step s by ulps
        # across the diagonal tolerance 1e-10 + 1e-5 on both sides of 1
        for delta in (1e-5 + 1e-10, -(1e-5 + 1e-10)):
            s = np.sqrt(1.0 + delta)
            for _ in range(6):
                s = np.nextafter(s, 0.0)
            for _ in range(13):
                cases.append(np.diag([s, 1.0]))
                s = np.nextafter(s, 2.0)
        for bad in (np.nan, np.inf):
            q = np.eye(3)
            q[1, 2] = bad
            cases.append(q)
        verdicts = []
        for q in cases:
            # inf * 0 in the Gram matrix is NaN, which both checks reject;
            # Orthogonal runs outside the errstate, so a warning of its own fails
            with np.errstate(invalid="ignore"):
                want = bool(np.allclose(q.T @ q, np.eye(len(q)), atol=1e-10))
            assert self._accepts(q) == want, q
            verdicts.append(want)
        # both outcomes occur next to each threshold
        assert verdicts.count(True) > 60 and verdicts.count(False) > 10

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

    def test_sphere_inversion_round_trip_across_the_float_range(self):
        # |v|^2 under- or overflows below about 1e-154 and above 1e154, where
        # a point near the center went to INFINITY and a far one to the center
        inv = SphereInversion(np.zeros(3), 1.0)
        rng = np.random.default_rng(11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for exponent in np.linspace(-300.0, 300.0, 241):
                direction = rng.standard_normal(3)
                p = 10.0**exponent * direction / math.hypot(*direction)
                image = inv.apply(p)
                assert not is_infinity(image), exponent
                q = inv.apply(image)
                assert math.dist(q, p) <= 6 * np.finfo(float).eps * math.hypot(*p), exponent

    def test_only_the_center_of_an_inversion_maps_to_infinity(self):
        inv = SphereInversion(np.zeros(2), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inv.apply(np.array([1e-200, 0.0])).tolist() == pytest.approx([1e200, 0.0], rel=1e-15)
            assert inv.apply(np.array([1e200, 0.0])).tolist() == pytest.approx([1e-200, 0.0], rel=1e-15)
            assert is_infinity(inv.apply(np.zeros(2)))

    def test_an_inversion_image_beyond_the_float_range_is_a_parameter_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="beyond the float range"):
                SphereInversion(np.zeros(2), 1.0).apply(np.array([1e-310, 0.0]))

    @pytest.mark.parametrize(
        "f, p, name",
        [
            (MobiusMap([Scaling(1e300)]), [1e10, 1.0], "scaling"),
            (MobiusMap([Translation([1.7e308, 0.0])]), [1.7e308, 1.0], "translation"),
            (MobiusMap([Orthogonal(_ROTATION)]), [-1.7e308, 1.7e308], "orthogonal"),
        ],
        ids=["scaling", "translation", "orthogonal"],
    )
    def test_an_image_beyond_the_float_range_is_a_parameter_error_without_a_warning(self, f, p, name):
        # numpy's overflow warning came first, and then an inf coordinate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"^the {name} image of a point is beyond the float range$"):
                f.apply(p)

    def test_a_reassigned_translation_is_guarded_by_its_new_vector(self):
        # the guard reads |b| off b, so a vector set after construction
        # is bounded as it stands, not by the |b| it was built with
        t = Translation([1.0, 0.0])
        t.b = np.array([1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^the translation image of a point is beyond the float range$"):
                MobiusMap([t]).apply([8.9e307, 1.0])

    def test_a_list_point_is_read_as_its_array(self):
        # a list is coerced as as_point coerces it, so the bound on |p|
        # reads its array, in range and beyond it
        t, o, i = Translation([0.5, -1.0]), Orthogonal(_ROTATION), SphereInversion([0.0, 3.0], 0.5)
        for g in (t, o, i):
            assert g.apply([0.25, 2.0]).tobytes() == g.apply(np.array([0.25, 2.0])).tobytes()
        with pytest.raises(ParameterError, match="^the translation image of a point is beyond the float range$"):
            Translation([1.7e308, 0.0]).apply([1.7e308, 1.0])
        with pytest.raises(ParameterError, match="^the orthogonal image of a point is beyond the float range$"):
            o.apply([-1.7e308, 1.7e308])

    def test_a_scaling_reads_a_list_point(self):
        # as the array as_point makes of it, in range and beyond it, where
        # it raises with no numpy warning
        s = Scaling(2.0**0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ([0.25, -2.0], [1, 3, -7], [1e300, 5e-324], [1.2e308, -0.0]):
                assert s.apply(p).tobytes() == s.apply(np.array(p, dtype=float)).tobytes()
            with pytest.raises(ParameterError, match="^the scaling image of a point is beyond the float range$"):
                s.apply([1.7e308, 1.0])

    @pytest.mark.parametrize(
        "f",
        [
            Translation([0.5, -1.0, 2.0]),
            Scaling(2.0**0.5),
            Orthogonal([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            SphereInversion([0.0, 3.0, -1.0], 0.5),
            MobiusMap([Translation([0.5, -1.0, 2.0]), SphereInversion([0.0, 3.0, -1.0], 0.5), Scaling(3.0)]),
        ],
        ids=["translation", "scaling", "orthogonal", "inversion", "map"],
    )
    def test_every_apply_reads_its_point_by_as_points_rule(self, f):
        # a list, a float array and a checked point of the same coordinates
        # give one image, to the bit; a point of the wrong dimension, a
        # 1-D point included, is geometry's ParameterError, not numpy's own
        coords = [0.25, -0.5, 2.0]
        images = [f.apply(p) for p in (coords, np.array(coords), UpperHalfSpace(3)._point(coords, "x"))]
        assert len({image.tobytes() for image in images}) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ([1.0],) if f.dim is None else ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
                with pytest.raises(ParameterError, match="^(a point must be a vector|point of dimension)"):
                    f.apply(bad)

    def test_images_in_range_keep_numpys_bits(self):
        # a bound on |p| picks the unguarded or the errstate path; either
        # way an in-range image has the numpy expression's bits, at the
        # edge of the range too
        rng = np.random.default_rng(12)
        t, s, o = Translation(rng.normal(size=2)), Scaling(10.0 ** rng.uniform(-1, 1)), Orthogonal(_ROTATION)
        points = [rng.normal(size=2) * 10.0 ** rng.uniform(-300, 300) for _ in range(200)]
        points += [np.array([1.7e308, 0.0]), np.array([-1e308, -1e308]), np.array([5e-324, -0.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in points:
                assert t.apply(p).tobytes() == (p + t.b).tobytes()
                assert s.apply(p).tobytes() == (s.factor * p).tobytes()
                assert o.apply(p).tobytes() == (_ROTATION @ p).tobytes(), p

    def test_generators_keep_their_repr_identity_equality_and_hash(self):
        # the reprs the frozen dataclasses had, with no private field shown;
        # equal parameters make distinct generators, each usable as a key
        pairs = [
            (Translation([1.0, 2.0]), "Translation(b=array([1., 2.]))"),
            (Scaling(2), "Scaling(factor=2.0)"),
            (Orthogonal([[0, -1], [1, 0]]), "Orthogonal(matrix=array([[ 0., -1.],\n       [ 1.,  0.]]))"),
            (SphereInversion([0, 1], 1.5), "SphereInversion(center=array([0., 1.]), radius=1.5)"),
        ]
        for g, text in pairs:
            assert repr(g) == text
            twin = type(g)(*(getattr(g, f) for f in type(g).__match_args__))
            assert g == g and g != twin and repr(twin) == text
            assert {g: 1, twin: 2}[g] == 1 and hash(g) == hash(g)


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
            back = _inverse(f).apply(q)
            assert np.allclose(back, p, atol=1e-9)

    def test_rejects_non_generators(self):
        with pytest.raises(ParameterError, match=r"^not a Mobius generator: 'shift'$"):
            MobiusMap([Translation([1.0, 0.0]), "shift"])
        with pytest.raises(ParameterError, match=r"^not a Mobius generator: 2\.0$"):
            MobiusMap([2.0, Translation([1.0, 0.0, 0.0])])

    def test_generators_that_are_not_a_collection_are_a_parameter_error(self):
        # tuple(5) raised a plain TypeError
        with pytest.raises(ParameterError, match="^Mobius generators must be a collection, got 5$"):
            MobiusMap(5)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError, match=r"^generators disagree on dimension: \[2, 3\]$"):
            MobiusMap([Translation([1.0, 0.0]), Translation([1.0, 0.0, 0.0])])
        gens = [SphereInversion(np.zeros(4), 1.0), Scaling(2.0), Translation([1.0, 0.0]), Orthogonal(np.eye(3))]
        with pytest.raises(ParameterError, match=r"^generators disagree on dimension: \[2, 3, 4\]$"):
            MobiusMap(gens)

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

    def test_a_huge_ball_automorphism_base_point_is_outside_without_a_warning(self):
        # |a|^2 overflowed in a.dot(a) before the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"^ball_automorphism needs 0 < \|a\| < 1$"):
                ball_automorphism([1e200, 0.0])

    def test_a_tiny_ball_automorphism_base_point_is_inside_but_cannot_be_inverted(self):
        # [1e-200, 0] is in the ball, but |a|^2 underflows, so a* = a/|a|^2 cannot be formed
        with pytest.raises(ParameterError, match=r"^ball_automorphism cannot form a\* = a/\|a\|\^2: \|a\|\^2 underflows"):
            ball_automorphism([1e-200, 0.0])

    def test_a_ball_automorphism_base_point_within_rounding_of_the_sphere_names_the_rounding(self):
        # inside the ball, but |a*|^2 - 1 rounds to 0, which made the
        # inversion radius 0 and raised about the radius
        a = [-0.8784069177470691, -0.08266045905288896, -0.4707106705432321]
        assert UnitBall(3).contains(a)
        with pytest.raises(ParameterError, match=r"^ball_automorphism needs \|a\| < 1 by more than rounding: "):
            ball_automorphism(a)

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

    def test_far_punctures_come_back_near_the_center(self):
        # the inversion sent each far puncture to the center, so the two coincided
        d = FiniteComplement(2, [[1e200, 0.0], [2e200, 0.0]])
        img = map_domain(inversion_unit(2), d)
        assert [p.tolist() for p in img.removed] == [
            pytest.approx([1e-200, 0.0], rel=1e-15),
            pytest.approx([5e-201, 0.0], rel=1e-15),
            [0.0, 0.0],
        ]
        assert img.includes_infinity_boundary is False

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
