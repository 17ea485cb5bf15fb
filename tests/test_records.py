"""The package's immutable records: construction, immutability, equality, hash and repr.

Each of the 16 record classes is built once by position and once by keyword
from the same fields. The expected ``repr`` texts are those the classes gave
when they were generated by ``dataclasses``, so the plain classes keep them.
Arrays print under ``np.printoptions(threshold=4, edgeitems=1)``.
"""

import inspect

import numpy as np
import pytest

from mixedframes import errors, figures, galilei, group_algebra as ga, quantum_system as qs
from mixedframes import thermal as th, verify

GRID = qs.PositionGrid(64, 8.0)


def _wave():
    return qs.WaveFunction(GRID, np.full(64, 1.0 / np.sqrt(8.0), dtype=complex))


# name -> (class, keyword fields, compares by value, repr at the dataclass version)
RECORDS = {
    "DiracComponent": (ga.DiracComponent, lambda: {"location": 0.5}, True, "DiracComponent(location=0.5)"),
    "GaussianComponent": (
        ga.GaussianComponent, lambda: {"mean": -1.25, "variance": 0.5}, True,
        "GaussianComponent(mean=-1.25, variance=0.5)",
    ),
    "GroupDensity": (
        ga.GroupDensity,
        lambda: {"components": ((0.25, ga.DiracComponent(0.0)), (0.75, ga.GaussianComponent(1.0, 2.0)))},
        True,
        "GroupDensity(components=((0.25, DiracComponent(location=0.0)), "
        "(0.75, GaussianComponent(mean=1.0, variance=2.0))))",
    ),
    "PositionGrid": (
        qs.PositionGrid, lambda: {"n_points": 64, "extent": 8.0}, True, "PositionGrid(n_points=64, extent=8.0)",
    ),
    "WaveFunction": (
        qs.WaveFunction,
        lambda: {"grid": GRID, "amplitudes": np.full(64, 1.0 / np.sqrt(8.0), dtype=complex)},
        False,
        "WaveFunction(grid=PositionGrid(n_points=64, extent=8.0), "
        "amplitudes=array([0.35355339+0.j, ..., 0.35355339+0.j], shape=(64,)))",
    ),
    "PureMixture": (
        qs.PureMixture, lambda: {"grid": GRID, "terms": ((1.0, _wave()),)}, False,
        "PureMixture(grid=PositionGrid(n_points=64, extent=8.0), terms=((1.0, WaveFunction("
        "grid=PositionGrid(n_points=64, extent=8.0), "
        "amplitudes=array([0.35355339+0.j, ..., 0.35355339+0.j], shape=(64,)))),))",
    ),
    "PositionDensity": (
        qs.PositionDensity, lambda: {"grid": GRID, "values": np.full(64, 0.125)}, False,
        "PositionDensity(grid=PositionGrid(n_points=64, extent=8.0), "
        "values=array([0.125, ..., 0.125], shape=(64,)))",
    ),
    "ChannelOutput": (
        qs.ChannelOutput,
        lambda: {
            "inputs": qs.pure_state(_wave()), "shifts": (0.5,), "offset_weights": (1.0,), "weights": (1.0,),
        },
        False,
        "ChannelOutput(inputs=PureMixture(grid=PositionGrid(n_points=64, extent=8.0), "
        "terms=((1.0, WaveFunction(grid=PositionGrid(n_points=64, extent=8.0), "
        "amplitudes=array([0.35355339+0.j, ..., 0.35355339+0.j], shape=(64,)))),)), "
        "shifts=(0.5,), offset_weights=(1.0,), weights=(1.0,))",
    ),
    "PhysicalConstants": (
        th.PhysicalConstants, lambda: {"hbar": 0.7, "k_boltzmann": 1.3}, True,
        "PhysicalConstants(hbar=0.7, k_boltzmann=1.3)",
    ),
    "ThermalParameters": (
        th.ThermalParameters, lambda: {"beta": 2.0, "mass": 0.5, "constants": th.PhysicalConstants()}, True,
        "ThermalParameters(beta=2.0, mass=0.5, constants=PhysicalConstants(hbar=1.0, k_boltzmann=1.0))",
    ),
    "MomentumGrid": (
        th.MomentumGrid, lambda: {"n_points": 3, "p_max": 1.5, "center": 0.25}, True,
        "MomentumGrid(n_points=3, p_max=1.5, center=0.25)",
    ),
    "MomentumMixture": (
        th.MomentumMixture,
        lambda: {"grid": th.MomentumGrid(3, 1.0), "weights": np.array([0.25, 0.5, 0.25])},
        False,
        "MomentumMixture(grid=MomentumGrid(n_points=3, p_max=1.0, center=0.0), weights=array([0.25, 0.5 , 0.25]))",
    ),
    "GalileiParams": (
        galilei.GalileiParams, lambda: {"mass": 1.0, "time": 0.5, "hbar": 0.7}, True,
        "GalileiParams(mass=1.0, time=0.5, hbar=0.7)",
    ),
    "MomentumEigenLabel": (
        galilei.MomentumEigenLabel, lambda: {"momentum": 1.5, "phase": 7.0}, True,
        "MomentumEigenLabel(momentum=1.5, phase=0.7168146928204138)",
    ),
    "Artifact": (
        figures.Artifact, lambda: {"name": "demo", "files": (("demo.csv", "x\n1\n"),), "metadata": {"k": 1}}, True,
        "Artifact(name='demo', files=(('demo.csv', 'x\\n1\\n'),), metadata={'k': 1})",
    ),
    "CheckResult": (
        verify.CheckResult, lambda: {"name": "row", "parameters": "n=1", "residual": 0.0, "tolerance": 1e-12}, True,
        "CheckResult(name='row', parameters='n=1', residual=0.0, tolerance=1e-12)",
    ),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_is_listed():
    found = {
        name
        for module in (ga, qs, th, galilei, figures, verify)
        for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, errors.Frozen) and value is not errors.Frozen
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    cls, keywords, _, _ = RECORDS[name]
    by_keyword, by_position = cls(**keywords()), cls(*keywords().values())
    assert type(by_keyword)._fields == tuple(keywords())
    assert repr(by_keyword) == repr(by_position)
    assert not hasattr(cls, "__dataclass_fields__")


def test_defaults():
    assert th.PhysicalConstants() == th.PhysicalConstants(1.0, 1.0)
    assert th.ThermalParameters(2.0, 0.5) == th.ThermalParameters(2.0, 0.5, th.PhysicalConstants())
    assert th.MomentumGrid(3, 1.5) == th.MomentumGrid(3, 1.5, 0.0)
    assert galilei.GalileiParams(1.0, 0.5) == galilei.GalileiParams(1.0, 0.5, 1.0)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, keywords, _, _ = RECORDS[name]
    record = cls(**keywords())
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert repr(record) == repr(cls(**keywords()))


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash(name):
    cls, keywords, by_value, _ = RECORDS[name]
    record, twin = cls(**keywords()), cls(**keywords())
    assert record == record and not record != record
    assert (record == twin) is by_value and (record != twin) is not by_value
    assert record != _fields(record) and record != object()
    if not by_value:
        assert hash(record) == object.__hash__(record)
        return
    try:
        expected = hash(_fields(record))
    except TypeError:  # Artifact's metadata dict is unhashable, so is the record
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(twin) == expected
    assert len({record, twin}) == 1


def test_records_of_different_fields_differ():
    assert ga.GaussianComponent(0.0, 1.0) != ga.GaussianComponent(0.0, 2.0)
    assert ga.DiracComponent(0.0) != ga.DiracComponent(1.0)
    assert qs.PositionGrid(64, 8.0) != qs.PositionGrid(128, 8.0)
    assert ga.DiracComponent(1.0) != ga.GaussianComponent(1.0, 1.0)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_text(name):
    cls, keywords, _, text = RECORDS[name]
    with np.printoptions(threshold=4, edgeitems=1):
        assert repr(cls(**keywords())) == text


class _Pair(errors.Frozen):
    def __init__(self, left, right=0.0):
        total = left + right  # a local of __init__ is no field
        self._set(left, total - left)


class _Subpair(_Pair):
    pass


def test_fields_are_the_constructors_parameters():
    assert _Pair._fields == ("left", "right")
    assert _Subpair._fields == ("left", "right")
    assert repr(_Subpair(1.0, 2.0)) == "_Subpair(left=1.0, right=2.0)"
    assert _Subpair(1.0) == _Subpair(1.0, 0.0) != _Pair(1.0)


@pytest.mark.parametrize("values", [(1.0,), (1.0, 2.0, 3.0)])
def test_set_takes_one_value_per_field(values):
    record = _Pair(1.0, 2.0)
    with pytest.raises(ValueError):
        errors.Frozen._set(record, *values)
