"""Every record type that reads itself back with ``from_dict`` is listed here,
round-trips a sample, and raises LieFoliateError for data that is no record.
The records are named tuples that behave as frozen records: fields cannot be
assigned, roots order by their coordinates, equal records hash alike, and
``to_dict`` holds no tuple, so no record leaks into the JSON as a list."""

import ast
import importlib
import json
from pathlib import Path

import pytest

import liefoliate
from liefoliate.catalog import catalog_entries, catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import enumerate_foliations
from liefoliate.parabolic import horospherical, parabolic_data, phi_subset
from liefoliate.roots import RANK_RANGES, Family, Root, build_root_system, dynkin_diagram

PACKAGE = Path(liefoliate.__file__).resolve().parent


def _sl5_phi_13():
    sl5 = catalog_lookup("SL5")
    return sl5, phi_subset(sl5, [1, 3])


# class name -> (a sample record, edits of its to_dict() that make it no record:
# the field naming its space or family set to 5, and fields of the wrong shape)
SAMPLES = {
    "RootSystem": (lambda: build_root_system("BC", 2),
                   ({"family": 5}, {"simple": None}, {"simple": [None, None]}, {"positive": None},
                    {"roots": 5})),
    "DynkinDiagram": (lambda: dynkin_diagram(build_root_system("D", 4)), ()),
    "SpaceDescriptor": (lambda: catalog_lookup("su(4,2)"), ({"name": 5},)),
    "ParabolicData": (lambda: parabolic_data(*_sl5_phi_13()), ({"space": 5},)),
    "HorosphericalData": (lambda: horospherical(*_sl5_phi_13()), ({"space": 5},)),
    "FoliationClass": (lambda: enumerate_foliations(catalog_lookup("so(4,4)"))[5], ({"space": 5},)),
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
    sample, edits = SAMPLES[name]
    record = sample()
    data = record.to_dict()
    assert cls.from_dict(data) == record
    assert cls.from_dict(data).to_dict() == data
    for value in [None, [], " ".join(data), *({**data, **edit} for edit in edits)]:
        with pytest.raises(LieFoliateError):
            cls.from_dict(value)


def _one_of_each() -> dict:
    """Class name -> one instance, for every record class of the structure path."""
    space = catalog_lookup("su(4,2)")  # BC_2: a double circle and an arrow
    rs = space.root_system
    dd = dynkin_diagram(rs)
    phi = phi_subset(space, [1])
    horo = horospherical(space, phi)
    record = next(c for c in enumerate_foliations(space) if c.phi)
    return {
        "Root": rs.simple[0], "RootSystem": rs, "DynkinVertex": dd.vertices[0],
        "DynkinEdge": dd.edges[0], "DynkinDiagram": dd, "CatalogEntry": catalog_entries()[0],
        "SpaceDescriptor": space, "MultiplicityFunction": space.multiplicities, "PhiSubset": phi,
        "ParabolicData": parabolic_data(space, phi), "BoundaryFactor": horo.factors[0],
        "HorosphericalData": horo, "HyperbolicFactor": record.factors[0],
        "PhiOrbit": record.phi_orbit, "FoliationClass": record,
    }


ONE_OF_EACH = _one_of_each()


@pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
def test_record_fields_cannot_be_assigned(name):
    record = ONE_OF_EACH[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(n for n, r in ONE_OF_EACH.items() if hasattr(r, "to_dict")))
def test_to_dict_is_plain_json(name):
    data = ONE_OF_EACH[name].to_dict()
    assert json.loads(json.dumps(data)) == data  # a tuple, a record among them, comes back a list


@pytest.mark.parametrize("family", list(Family))
def test_roots_sort_by_their_coordinates(family):
    rs = build_root_system(family, RANK_RANGES[family][1] or 4)
    assert sorted(rs.roots) == sorted(rs.roots, key=lambda lam: lam.scaled)


def test_the_names_of_one_space_give_one_record_with_one_hash():
    spaces = [catalog_lookup(name) for name in ("SL5", "sl(5,R)", "SL_5(R)/SO_5")]
    assert spaces[0] is spaces[1] is spaces[2]
    assert spaces[0] == spaces[2] and len({hash(s) for s in spaces}) == 1
    assert spaces[0] == spaces[0]._replace() and hash(spaces[0]) == hash(spaces[0]._replace())


# Class name -> (a record, a _replace edit its constructor refuses, a valid edit)
CHECKED = {
    "Root": (lambda: Root((2, -2)), {"scaled": [2, -2]}, {"scaled": (4, -4)}),
    "SpaceDescriptor": (lambda: catalog_lookup("SL5"), {"rank": 9}, {"notes": ("edited",)}),
    "PhiSubset": (lambda: phi_subset(catalog_lookup("SL5"), [1, 3]), {"indices": (9,)}, {"indices": (2,)}),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_replace_checks_the_fields_as_the_constructor_does(name):
    make, bad, good = CHECKED[name]
    record = make()
    with pytest.raises(LieFoliateError):
        record._replace(**bad)
    with pytest.raises(LieFoliateError):
        type(record)._make({**record._asdict(), **bad}.values())
    edited = record._replace(**good)
    assert type(edited) is type(record) and edited == type(record)(**{**record._asdict(), **good})
