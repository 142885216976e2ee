"""Every record type that reads itself back with ``from_dict`` is listed here,
round-trips a sample, and raises LieFoliateError for data that is no record."""

import ast
import importlib
from pathlib import Path

import pytest

import liefoliate
from liefoliate.catalog import catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import enumerate_foliations
from liefoliate.parabolic import horospherical, parabolic_data, phi_subset
from liefoliate.roots import build_root_system, dynkin_diagram

PACKAGE = Path(liefoliate.__file__).resolve().parent


def _sl5_phi_13():
    sl5 = catalog_lookup("SL5")
    return sl5, phi_subset(sl5, [1, 3])


# class name -> (a sample record, the field naming its space or family, or None)
SAMPLES = {
    "RootSystem": (lambda: build_root_system("BC", 2), "family"),
    "DynkinDiagram": (lambda: dynkin_diagram(build_root_system("D", 4)), None),
    "SpaceDescriptor": (lambda: catalog_lookup("su(4,2)"), "name"),
    "ParabolicData": (lambda: parabolic_data(*_sl5_phi_13()), "space"),
    "HorosphericalData": (lambda: horospherical(*_sl5_phi_13()), "space"),
    "FoliationClass": (lambda: enumerate_foliations(catalog_lookup("so(4,4)"))[5], "space"),
}


def _record_types() -> dict[str, str]:
    """Class name -> module name, for every package class that defines from_dict."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "from_dict" for f in node.body
            ):
                found[node.name] = path.stem
    return found


RECORD_TYPES = _record_types()


def test_every_record_type_has_a_sample():
    assert sorted(RECORD_TYPES) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(RECORD_TYPES))
def test_record_type_round_trips_and_rejects_what_is_no_record(name):
    cls = getattr(importlib.import_module(f"liefoliate.{RECORD_TYPES[name]}"), name)
    sample, space_key = SAMPLES[name]
    record = sample()
    data = record.to_dict()
    assert cls.from_dict(data) == record
    assert cls.from_dict(data).to_dict() == data
    bad = [None, [], " ".join(data)]
    if space_key is not None:
        bad.append({**data, space_key: 5})
    for value in bad:
        with pytest.raises(LieFoliateError):
            cls.from_dict(value)
