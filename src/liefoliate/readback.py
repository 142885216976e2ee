"""Reading a record back from its ``to_dict`` form.

Only the ``from_dict`` methods of ``RootSystem``, ``SpaceDescriptor``,
``ParabolicData``, ``HorosphericalData`` and ``FoliationClass`` call this
module, each importing it in its body, so no command that only prints
records compiles it.  One rule reads all five: rebuild the record from its
key fields, then compare every field of its ``to_dict``.  The root lists of
a root system or a parabolic record are counted before any root is walked,
so a short record is refused at once.
"""

from __future__ import annotations

from operator import eq

from .errors import LieFoliateError


def rebuilt(data: dict, keys: tuple[str, ...], build, what: str, sizes=None):
    """The record ``build(*values)`` that the key fields of ``data`` name.

    ``data`` must be a dict holding the key fields, the first of which names
    the space or the family, and every key of the rebuilt record's
    ``to_dict`` with the same value; else LieFoliateError, whose message
    begins with ``what``.  ``sizes(*values)``, when given, is the length of
    each root list of that ``to_dict`` from the record's counts alone; the
    lists of ``data`` are checked against it before ``build`` or ``to_dict``
    walks a root.
    """
    if not isinstance(data, dict):
        raise LieFoliateError(f"{what} is a {type(data).__name__}, not a dict")
    missing = [key for key in keys if key not in data]
    if missing:
        raise LieFoliateError(f"{what} lacks {', '.join(missing)}")
    values = [data[key] for key in keys]
    if sizes is not None:
        _require(data, sizes(*values), what, values[0], lambda listed, n: type(listed) is list and len(listed) == n)
    record = build(*values)
    expected = record.to_dict()
    _require(data, expected, what, expected[keys[0]], eq)
    return record


def _require(data: dict, expected: dict, what: str, name, agrees) -> None:
    """LieFoliateError unless ``data`` holds every key of ``expected`` and ``agrees(data[key], expected[key])``."""
    missing = [key for key in expected if key not in data]
    if missing:
        raise LieFoliateError(f"{what} lacks {', '.join(missing)}")
    wrong = [key for key in expected if not agrees(data[key], expected[key])]
    if wrong:
        raise LieFoliateError(f"{what} disagrees with {name} in {', '.join(wrong)}")


def named(name, phi) -> tuple:
    """(space, Phi): the ``SpaceDescriptor`` and the ``PhiSubset`` a record names."""
    from .catalog import catalog_lookup  # here, so that RootSystem.from_dict does not load catalog
    from .parabolic import PhiSubset  # and SpaceDescriptor.from_dict does not load parabolic

    if not isinstance(phi, list):
        raise LieFoliateError(f"phi {phi!r} is not a list of simple-root indices")
    space = catalog_lookup(name)
    return space, PhiSubset(space, tuple(phi))
