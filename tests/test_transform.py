import numpy as np
import pytest

from wnvfront.transform import FrontGeometry


def test_endpoint_and_midpoint_mapping():
    geom = FrontGeometry(g=-2.0, h=4.0)
    assert geom.to_y(geom.h) == 1.0
    assert geom.to_y(geom.g) == -1.0
    assert geom.to_y(0.5 * (geom.g + geom.h)) == 0.0
    assert geom.to_y(1.0) == pytest.approx(0.0, abs=1e-15)
    assert geom.to_x(0.0) == pytest.approx(1.0, abs=1e-15)


def test_round_trip_random_geometries(rng):
    for _ in range(1000):
        g = rng.uniform(-50, 49)
        h = g + rng.uniform(0.1, 60)
        geom = FrontGeometry(g=g, h=h)
        y = rng.uniform(-1, 1, 8)
        np.testing.assert_allclose(geom.to_y(geom.to_x(y)), y, rtol=0, atol=1e-12)


def test_metric_terms_static_unit_width():
    geom = FrontGeometry(g=-1.0, h=1.0)
    A, B = geom.metric_terms(np.array([-1.0, 0.0, 1.0]))
    assert A == 1.0
    np.testing.assert_array_equal(B, 0.0)


def test_metric_terms_symmetric_expansion_center():
    geom = FrontGeometry(g=-1.0, h=1.0, gdot=-0.3, hdot=0.3)
    _, B = geom.metric_terms(0.0)
    assert B == pytest.approx(0.0, abs=1e-15)


def test_metric_terms_reference_point():
    geom = FrontGeometry(g=-1.0, h=3.0, gdot=-0.5, hdot=0.25)
    A, B = geom.metric_terms(0.5)
    assert A == pytest.approx(0.25, abs=1e-15)
    assert B == pytest.approx(-0.03125, abs=1e-15)


def test_degenerate_geometry_rejected():
    with pytest.raises(ValueError):
        FrontGeometry(g=1.0, h=1.0)
    with pytest.raises(ValueError):
        FrontGeometry(g=2.0, h=-2.0)


def test_out_of_domain_rejected():
    geom = FrontGeometry(g=-1.0, h=1.0)
    with pytest.raises(ValueError):
        geom.to_y(1.5)
    with pytest.raises(ValueError):
        geom.to_x(1.5)


def test_width_and_center():
    geom = FrontGeometry(g=-2.0, h=4.0)
    assert geom.width == 6.0
