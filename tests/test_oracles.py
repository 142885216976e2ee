"""The library against the benchmark's independent oracles.

``perfbench/oracles.py`` computes every dimension, record count and root
count from hand-written diagrams and per-type root counts, and
``perfbench/inputs.ENTRIES`` lists every catalog entry's multiplicities per
squared root length, without calling ``liefoliate``.  The other tests build
their references from the package itself (its root walk, its diagrams, its
catalog), so a multiplicity swap that keeps dim M, such as e6(2)'s (1, 1, 2, 2)
read as (2, 2, 1, 1), passes them; these checks catch it.

Every entry is checked at each rank up to ``MAX_RANK`` and each value of its
secondary parameter n: its dimension, its foliation records, and its
parabolic and horospherical data for every Phi up to rank ``ALL_PHI_RANK``
and every orthogonal Phi above it.  Every family's root list and diagram
are checked up to ``MAX_RANK`` too.
"""

import itertools
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # perfbench's inputs draw matrices with it

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import oracles  # noqa: E402
from perfbench.inputs import ENTRIES, FAMILY_MIN_RANK  # noqa: E402

from liefoliate import catalog_lookup, enumerate_foliations  # noqa: E402
from liefoliate.parabolic import horospherical, parabolic_data, phi_subset  # noqa: E402
from liefoliate.roots import build_root_system, family_diagram  # noqa: E402

MAX_RANK = 8
ALL_PHI_RANK = 5


def _instances(entry):
    """(name, oracle space) of the entry at every rank up to MAX_RANK and every n."""
    top = MAX_RANK if entry.max_rank is None else min(entry.max_rank, MAX_RANK)
    ns = range(entry.n_range[0], entry.n_range[1] + 1) if entry.n_range else (0,)
    for r in range(entry.min_rank, top + 1):
        for n in ns:
            mults = tuple(sorted(entry.mults(n).items()))
            yield entry.names(r, n)[0], oracles.Space(entry.key, entry.family, r, mults)


def _phis(family, r):
    if r <= ALL_PHI_RANK:
        return [phi for k in range(r + 1) for phi in itertools.combinations(range(1, r + 1), k)]
    return oracles.independent_sets(family, r)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.key)
def test_every_catalog_instance_agrees_with_the_oracles(entry):
    errors = []
    for name, expected in _instances(entry):
        space = catalog_lookup(name)
        found = oracles.check_dimension(expected, space.dimension)
        records = [(c.phi, c.dim_v, c.codim, c.leaf_dim, c.dim_n_phi, len(c.orbit))
                   for c in enumerate_foliations(space)]
        found += oracles.check_foliations(expected, records)
        for phi in _phis(expected.family, expected.rank):
            subset = phi_subset(space, phi)
            found += oracles.check_parabolic(expected, phi, parabolic_data(space, subset).to_dict())
            found += oracles.check_horospherical(expected, phi, horospherical(space, subset).to_dict())
        errors += [f"{name}: {e}" for e in found]
    assert not errors, f"{len(errors)} mismatches, first: {errors[:5]}"


FAMILIES = [(family, r) for family, lo in FAMILY_MIN_RANK.items()
            for r in range(lo, (lo if family in oracles.FIXED_RANK else MAX_RANK) + 1)]


@pytest.mark.parametrize("family, rank", FAMILIES)
def test_every_root_system_and_diagram_agrees_with_the_oracles(family, rank):
    errors = oracles.check_rootsys(family, rank, build_root_system(family, rank).to_dict())
    errors += oracles.check_dynkin(family, rank, family_diagram(family, rank).to_dict())
    assert not errors
