"""The full root list of a root system, for the commands that print or check it.

``build_root_system`` reaches every positive root from the simple roots of
``roots._SIMPLE_ROOTS`` by simple reflections that raise its height, reading
the pairings off the Cartan matrix of ``family_diagram``; BC_r adds 2 beta
for each short root beta of B_r.  The same walk gives every root's
simple-root coefficients.  Positive roots are ordered by
height, then by their coefficients in descending lexicographic order, so
``positive`` begins with the simple roots in order.  A system holds O(r^2)
roots of r coordinates each; the structure commands read the diagram of
``roots`` and its closed forms instead, and do not load this module.  The
cache of ``build_root_system`` is the one store of a system: a catalog
space keeps none (``root_multiplicity`` calls ``build_root_system``), and a
system keeps no diagram (``dynkin_diagram`` calls ``family_diagram``).
``RootSystem.from_dict`` reads back only what ``to_dict`` wrote: it
rebuilds the system from its family and rank and compares every field
(``readback.rebuilt``), after counting the listed roots against
``POSITIVE_ROOT_COUNTS``, so a short record walks no root.

The exact arithmetic on roots (``inner``, ``reflect``), reading and
printing them (``root_from_coords``, ``format_root``), and the multiplicity
of every root of a catalog space (``MultiplicityFunction``,
``root_multiplicity``) live here too, since only users of the root list
call them; ``roots`` and ``catalog`` still give these names, loading this
module on first use.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

from .errors import LieFoliateError
from .roots import (POSITIVE_ROOT_COUNTS, SCALE, _SIMPLE_ROOTS, DynkinDiagram, Family, Root, _checked_family,
                    _positive_roots, _vector, expect, family_diagram)


def root_from_coords(coords) -> Root:
    """Build a Root from finite real coordinates, halves allowed; strings and bools are refused."""
    from fractions import Fraction
    from numbers import Rational

    try:
        coords = iter(coords)
    except TypeError:
        raise LieFoliateError(f"coordinates {coords!r} are not an iterable of numbers") from None
    scaled = []
    for c in coords:
        try:
            if isinstance(c, (str, bool)):
                raise TypeError
            s = Fraction(c if isinstance(c, Rational) else float(c)) * SCALE
        except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinity
            raise LieFoliateError(f"coordinate {c!r} is not a finite number") from None
        if s.denominator != 1:
            raise LieFoliateError(f"coordinate {c} is not an integer or half-integer")
        scaled.append(int(s))
    return Root(tuple(scaled))


def format_root(root: Root) -> str:
    """Render a root as a combination of the ambient basis vectors e1, e2, ..."""
    halved = any(c % 2 for c in root.scaled)
    parts = []
    for i, s in enumerate(root.scaled, start=1):
        c = s if halved else s // 2
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}e{i}")
    body = "".join(parts)
    return f"({body})/2" if halved else body


def _dot(lam: Root, mu: Root) -> int:
    """The pairing of the doubled coordinates of two Roots of one ambient dimension."""
    expect(lam, Root)
    expect(mu, Root)
    if lam.dim != mu.dim:
        raise LieFoliateError(f"ambient dimension mismatch: {lam.dim} != {mu.dim}")
    return sum(a * b for a, b in zip(lam.scaled, mu.scaled))


def inner(lam: Root, mu: Root) -> Fraction:
    """Exact Euclidean pairing of two roots."""
    from fractions import Fraction

    return Fraction(_dot(lam, mu), SCALE * SCALE)


def reflect(lam: Root, x: Root) -> Root:
    """Reflect x in the hyperplane orthogonal to lam.

    Computes x - num/den lam exactly in integers, with num = 2 <x,lam> and
    den = <lam,lam> over the doubled coordinates.  The result must again have
    doubled-integer coordinates, which holds whenever both vectors belong to a
    common crystallographic root system, where den divides num.
    """
    num = 2 * _dot(lam, x)
    den = sum(a * a for a in lam.scaled)
    if num % den == 0:
        c = num // den
        return Root(tuple(xs - c * ls for xs, ls in zip(x.scaled, lam.scaled)))
    scaled = [den * xs - num * ls for xs, ls in zip(x.scaled, lam.scaled)]  # den times the image
    if any(v % den for v in scaled):
        raise LieFoliateError("reflection image has non-(half-)integer coordinates")
    return Root(tuple(v // den for v in scaled))


class RootSystem(namedtuple("RootSystem", "family rank ambient_dim roots positive simple cartan coefficients")):
    """A full root system: all roots, a choice of positives, and simple roots.

    ``positive`` is in canonical order (see ``_positive_roots``) and begins
    with ``simple``; ``cartan`` is the Cartan matrix of the family's diagram,
    which ``simple`` has, and ``coefficients`` the simple-root coefficients
    of each positive root.  Both are functions of the other fields, so
    comparing them too decides no equality differently.  No ``__slots__``:
    the cached properties live in the instance ``__dict__``.
    """

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    def simple_coefficients(self, root: Root) -> tuple[int, ...]:
        """Integer coefficients of a root of the system over the simple roots."""
        k = self.positive_index.get(root)
        if k is not None:
            return self.coefficients[k]
        k = self.positive_index.get(-root)
        if k is None:
            raise LieFoliateError(f"{root} is not a root of {self.family.value}_{self.rank}")
        return tuple(-x for x in self.coefficients[k])

    @cached_property
    def positive_index(self) -> dict[Root, int]:
        """Positive root -> its position in ``positive`` and ``coefficients``."""
        return {lam: k for k, lam in enumerate(self.positive)}

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "coordinate_scale": SCALE,
            "simple": [list(r.scaled) for r in self.simple],
            "positive": [list(r.scaled) for r in self.positive],
            "roots": [list(r.scaled) for r in sorted(self.roots)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RootSystem":
        """Rebuild a system of ``to_dict`` from its family and rank, checking every other field.

        The listed roots are in the coordinates and the order that
        ``build_root_system`` gives; their numbers, which ``POSITIVE_ROOT_COUNTS``
        fixes, are checked before any root is walked.
        """
        from .readback import rebuilt

        return rebuilt(data, ("family", "rank"), build_root_system, "root system data", _listed_sizes)


def _listed_sizes(family, rank) -> dict[str, int]:
    """The lengths of the root lists of ``to_dict`` for the family and rank, from the counts alone."""
    positive = sum(POSITIVE_ROOT_COUNTS[_checked_family(family, rank)](rank))
    return {"simple": rank, "positive": positive, "roots": 2 * positive}


def build_root_system(family: Family | str, rank: int) -> RootSystem:
    """Construct the root system of the given family and rank.

    Raises LieFoliateError when the rank is outside the family's validity
    range (A: r>=1; B, C: r>=2; D: r>=3; BC: r>=1; exceptional families have
    a fixed rank) or above MAX_RANK, and for an unknown family, before the
    cache is consulted, so unhashable arguments raise LieFoliateError too.
    Each system, O(r^2) roots of r coordinates, is built once;
    ``cache_info`` and ``cache_clear`` are those of that cache.
    """
    return _built_root_system(_checked_family(family, rank), rank)


@lru_cache(maxsize=None)
def _built_root_system(family: Family, rank: int) -> RootSystem:
    dim, simple = _SIMPLE_ROOTS[family](rank)
    diagram = family_diagram(family, rank)
    walk = _positive_roots([_vector(dim, alpha) for alpha in simple], diagram.cartan, family is Family.BC)
    positive = tuple([tuple.__new__(Root, (v,)) for _, v in walk])
    roots = frozenset(positive) | frozenset(-lam for lam in positive)
    return RootSystem(family, rank, dim, roots, positive, positive[:rank], diagram.cartan, tuple(c for c, _ in walk))


build_root_system.cache_info = _built_root_system.cache_info
build_root_system.cache_clear = _built_root_system.cache_clear


def dynkin_diagram(rs: RootSystem) -> DynkinDiagram:
    """Dynkin diagram of a root system: ``family_diagram`` of its family and
    rank, which its Cartan matrix fixes.  Nothing keeps it: each call makes
    a new diagram, equal to the last.
    """
    expect(rs, RootSystem)
    return family_diagram(rs.family, rs.rank)


class MultiplicityFunction(namedtuple("MultiplicityFunction", "table")):
    """Root multiplicities, constant on each length class of the root system.

    The catalog provides multiplicities on the simple roots only, and the
    table is read off them: every root is Weyl-conjugate to a simple root
    (Humphreys 10.3), or in BC is twice a short one, so its value is that of
    its squared length.  ``table`` maps the integer squared norm of a root's
    doubled coordinates, SCALE**2 times its squared length, to the
    multiplicity, so a call builds no Fraction.
    """

    __slots__ = ()

    @classmethod
    def for_space(cls, space: SpaceDescriptor) -> "MultiplicityFunction":
        """The table read off the simple roots, in O(r).  ``space.dimension`` raises
        first when simple roots of equal length carry different multiplicities."""
        space.dimension
        _, simple = _SIMPLE_ROOTS[space.family](space.rank)
        norms = [sum(c * c for c in alpha.values()) for alpha in simple]
        table = {norm: space.m_alpha(i) for i, norm in enumerate(norms, start=1)}
        if space.family is Family.BC:
            table[4 * norms[-1]] = space.m_2alpha(space.rank)
        return cls(table)

    def __call__(self, root: Root) -> int:
        expect(root, Root)
        try:
            return self.table[sum(c * c for c in root.scaled)]
        except KeyError:
            raise LieFoliateError(
                f"no multiplicity recorded for a root of squared length {inner(root, root)}"
            )


def root_multiplicity(space: SpaceDescriptor, lam: Root) -> int:
    """Multiplicity of a root of the space's restricted root system."""
    from .catalog import SpaceDescriptor

    expect(space, SpaceDescriptor)
    mult = space.multiplicities  # which raises first for a space of inconsistent multiplicities
    expect(lam, Root)
    if lam not in build_root_system(space.family, space.rank).roots:
        raise LieFoliateError(f"{lam} is not a restricted root of {space.name}")
    return mult(lam)
