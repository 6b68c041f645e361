"""The package's public export list."""

import quasigenus


def test_every_exported_name_resolves():
    for name in quasigenus.__all__:
        assert hasattr(quasigenus, name), name


def test_exports_are_unique():
    assert len(quasigenus.__all__) == len(set(quasigenus.__all__))


def test_removed_overlap_is_not_exported():
    for name in ("p1_square_coefficients", "Envelope",
                 "InterpolationError", "InterpolationConsistencyError"):
        assert name not in quasigenus.__all__
        assert not hasattr(quasigenus, name)


def test_retired_sampler_is_gone():
    from quasigenus import errors, exactalg, genus
    assert not hasattr(exactalg, "laurent_interpolate")
    for name in ("InterpolationError", "InterpolationConsistencyError"):
        assert not hasattr(errors, name)
    for name in ("_exponent_windows", "_sample_points", "laurent_interpolate"):
        assert not hasattr(genus, name)
