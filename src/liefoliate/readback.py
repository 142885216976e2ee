"""Reading a record back from its ``to_dict`` form.

Only the ``from_dict`` methods of ``SpaceDescriptor``, ``ParabolicData``,
``HorosphericalData`` and ``FoliationClass`` call this module, each importing
it in its body, so no command that only prints records compiles it.
"""

from __future__ import annotations

from .catalog import catalog_lookup
from .errors import LieFoliateError


def rebuilt(data: dict, keys: tuple[str, ...], build, what: str):
    """The record ``build(*values)`` that the key fields of ``data`` name.

    ``data`` must be a dict holding the key fields, the first of which names
    the space, and every key of the rebuilt record's ``to_dict`` with the
    same value; else LieFoliateError, whose message begins with ``what``.
    """
    if not isinstance(data, dict):
        raise LieFoliateError(f"{what} is a {type(data).__name__}, not a dict")
    missing = [key for key in keys if key not in data]
    if missing:
        raise LieFoliateError(f"{what} lacks {', '.join(missing)}")
    record = build(*(data[key] for key in keys))
    expected = record.to_dict()
    missing = [key for key in expected if key not in data]
    if missing:
        raise LieFoliateError(f"{what} lacks {', '.join(missing)}")
    wrong = [key for key in expected if data[key] != expected[key]]
    if wrong:
        raise LieFoliateError(f"{what} disagrees with {expected[keys[0]]} in {', '.join(wrong)}")
    return record


def named(name, phi) -> tuple:
    """(space, Phi): the ``SpaceDescriptor`` and the ``PhiSubset`` a record names."""
    from .parabolic import PhiSubset  # here, so that SpaceDescriptor.from_dict does not load parabolic

    if not isinstance(phi, list):
        raise LieFoliateError(f"phi {phi!r} is not a list of simple-root indices")
    space = catalog_lookup(name)
    return space, PhiSubset(space, tuple(phi))
