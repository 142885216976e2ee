"""Invariants from the paper across the whole catalog, up to rank 10.

The exhaustive tests check the closed form used by the foliation enumeration
against the general root-subsystem computation, and the data computed once
per space and per diagram against a fresh computation.  The property tests
draw random catalog instances and random Phi, and compare each result with a
reference made here from the simple-root expansions and the multiplicity
function.
"""

import contextlib
import functools
import io
import itertools
import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate import clear_caches, parabolic
from liefoliate.catalog import catalog_entries, catalog_lookup
from liefoliate.commands.foliations import write_json
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import (
    FoliationClass,
    enumerate_foliations,
    hyperbolic_factor,
    iter_foliations,
    orthogonal_subsets,
)
from liefoliate.parabolic import (
    PhiSubset,
    boundary_components,
    horospherical,
    parabolic_data,
    phi_subset,
    root_subsystem,
)
from liefoliate.roots import (
    POSITIVE_ROOT_COUNTS,
    SCALE,
    build_root_system,
    diagram_automorphisms,
    dynkin_diagram,
    inner,
    reflect,
    span_roots,
    subdiagram_type,
)
from liefoliate.slmodel import build_s_phi_v

MAX_RANK = 10


def _catalog_instances() -> tuple:
    """Every catalog entry at every rank up to MAX_RANK, several p - q each."""
    names = ["sl(2,R)"]
    for m in range(2, 2 * MAX_RANK + 2):
        names += [f"sl({m},R)", f"sl({m},C)", f"sl({m},H)", f"so({m},C)", f"so({m},H)",
                  f"sp({m},R)", f"sp({m},C)", f"so({m},1)"]
    for q in range(1, MAX_RANK + 1):
        for p in (q, q + 1, q + 2, q + 5):
            names += [f"so({p},{q})", f"sp({p},{q})", f"su({p},{q})"]
    names += [e.ascii_doc for e in catalog_entries() if e.fixed_rank is not None]
    spaces = {}
    for name in names:
        try:
            space = catalog_lookup(name)
        except LieFoliateError:
            continue
        if space.rank <= MAX_RANK:
            spaces.setdefault(space.name, space)
    return tuple(spaces.values())


SPACES = _catalog_instances()


def test_instances_cover_every_catalog_entry():
    assert {s.entry_key for s in SPACES} == {e.key for e in catalog_entries()}
    by_key = {}
    for s in SPACES:
        by_key.setdefault(s.entry_key, set()).add(s.rank)
    for e in catalog_entries():
        if e.fixed_rank is None:
            assert max(by_key[e.key]) == MAX_RANK, e.key


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_display_name_resolves_to_its_space(space):
    assert catalog_lookup(space.display) is catalog_lookup(space.name) == space


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_closed_form_dim_n_phi_matches_parabolic_data(space):
    for i in range(1, space.rank + 1):
        m = space.m_alpha(i) + space.m_2alpha(i)
        assert m == hyperbolic_factor(space, i).real_dim - 1
    records = enumerate_foliations(space, include_trivial=True)
    covered = set()
    for fc in records:
        for phi in fc.orbit:
            expected = parabolic_data(space, phi_subset(space, phi)).dim_n_phi
            assert fc.dim_n_phi == expected, (space.name, phi)
            covered.add(phi)
    assert covered == set(orthogonal_subsets(dynkin_diagram(space.root_system)))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_records_of_one_orbit_share_one_phi_orbit(space):
    shared = {}
    for fc in enumerate_foliations(space, include_trivial=True):
        assert shared.setdefault(fc.orbit, fc.phi_orbit) is fc.phi_orbit, (space.name, fc.phi)
    assert len({id(po) for po in shared.values()}) == len(shared)
    assert list(map(id, shared.values())) == list(map(id, _phi_orbits(space).values()))
    assert set(map(id, space.orbits.by_rep.values())) == set(map(id, shared.values()))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_enumeration_by_codim_equals_the_filtered_full_list(space):
    for include_trivial in (False, True):
        full = enumerate_foliations(space, include_trivial=include_trivial)
        for codim in range(space.rank + 2):
            expected = tuple(c for c in full if c.codim == codim)
            assert enumerate_foliations(space, include_trivial, codim) == expected, (include_trivial, codim)
        with pytest.raises(LieFoliateError):  # no class has a negative codimension
            enumerate_foliations(space, include_trivial, -1)


def _phi_orbits(space) -> dict:
    """Representative -> PhiOrbit over every layer of the space, in (r_Phi, Phi) order."""
    return {po.phi: po for layer in space.orbits.layers() for po in layer}


def _positive_split(space, phi):
    """Sums of multiplicities over the positive roots inside and outside span(Phi)."""
    rs, mult = space.root_system, space.multiplicities
    inside = outside = 0
    for lam in rs.positive:
        coeffs = rs.simple_coefficients(lam)
        if all(c == 0 for i, c in enumerate(coeffs, start=1) if i not in phi):
            inside += mult(lam)
        else:
            outside += mult(lam)
    return inside, outside


def _components_reference(space, phi) -> list[tuple[int, ...]]:
    """Phi's connected components in the diagram, in sorted order, grown one neighbour at a time."""
    dd, pending, components = dynkin_diagram(space.root_system), set(phi), []
    while pending:
        component, frontier = set(), [min(pending)]
        while frontier:
            v = frontier.pop()
            if v in pending:
                pending.discard(v)
                component.add(v)
                frontier.extend(dd.neighbors(v))
        components.append(tuple(sorted(component)))
    return components


def _cold_then_warm(space, phi):
    """Yield the space twice, each time as the descriptor that the catalog gives
    right after its caches are emptied, so with nothing kept on it, as in a
    fresh process: once as it is, and once Phi's components were filled by
    other subsets that share some of them: Phi less its last component,
    through horospherical, which builds no root set, and the last component
    alone, through root_subsystem, which builds its sets."""
    clear_caches()
    yield catalog_lookup(space.name)
    clear_caches()
    space = catalog_lookup(space.name)
    components = _components_reference(space, phi)
    if components:
        horospherical(space, phi_subset(space, [i for c in components[:-1] for i in c]))
        root_subsystem(space, phi_subset(space, components[-1]))
    assert set(space.components.seen) == set(components)
    yield space


@st.composite
def space_and_phi(draw, orthogonal=False):
    space = draw(st.sampled_from(SPACES))
    if orthogonal:
        phi = draw(st.sampled_from(orthogonal_subsets(dynkin_diagram(space.root_system))))
    else:
        phi = tuple(sorted(draw(st.sets(st.integers(1, space.rank)))))
    return space, phi


@settings(max_examples=150, deadline=None)
@given(space_and_phi())
def test_horospherical_dimensions_are_conserved(case):
    space, phi = case
    inside, outside = _positive_split(space, phi)
    assert space.dimension == space.rank + inside + outside
    for space in _cold_then_warm(space, phi):
        h = horospherical(space, phi_subset(space, phi))
        assert h.dim_Fs == len(phi) + inside == sum(f.dim for f in h.factors)
        assert h.dim_euclidean == space.rank - len(phi)
        assert h.dim_N == outside
        assert h.dim_Fs + h.dim_euclidean + h.dim_N == space.dimension


SL_SPACES = tuple(catalog_lookup(f"SL{n}") for n in range(2, 9))

REFUSED = r"not an orthogonal subset|dim_v .* is not in 0\.\."


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(SL_SPACES), st.sampled_from(SPACES)).flatmap(
    lambda space: st.tuples(st.just(space), st.sets(st.integers(1, space.rank)),
                            st.integers(-1, space.rank + 1))))
def test_read_back_and_sl_model_accept_exactly_the_pairs_of_the_one_rule(case):
    # Phi is replaced by its orbit's representative, so that only the rule
    # for (Phi, dim V) decides whether FoliationClass.from_dict accepts it.
    space, phi, dim_v = case
    phi = tuple(sorted(phi))
    allowed = PhiSubset(space, phi).is_orthogonal and 0 <= dim_v <= space.rank - len(phi)
    layers = itertools.islice(space.orbits.layers(), len(phi) + 1)
    rep = next((po.phi for layer in layers for po in layer if phi in po.orbit), phi)
    if allowed:
        (record,) = [c for c in enumerate_foliations(space, include_trivial=True)
                     if (c.phi, c.dim_v) == (rep, dim_v)]
        assert FoliationClass.from_dict(record.to_dict()) == record
    else:
        with pytest.raises(LieFoliateError, match=REFUSED):
            FoliationClass.from_dict({"space": space.name, "phi": list(rep), "dim_v": dim_v})
    if space.name != f"sl({space.rank + 1},R)":
        return
    if allowed:
        assert build_s_phi_v(space, phi, dim_v).dim == space.dimension - (space.rank - dim_v)
    else:
        with pytest.raises(LieFoliateError, match=REFUSED):
            build_s_phi_v(space, phi, dim_v)


@settings(max_examples=150, deadline=None)
@given(space_and_phi(orthogonal=True))
def test_closed_form_holds_for_random_orthogonal_phi(case):
    space, phi = case
    _, outside = _positive_split(space, phi)
    (fc,) = [c for c in enumerate_foliations(space, include_trivial=True)
             if phi in c.orbit and c.dim_v == 0]
    assert fc.dim_n_phi == outside


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES))
def test_every_record_has_codimension_r_minus_dim_v(space):
    for fc in enumerate_foliations(space, include_trivial=True):
        assert fc.codim == space.rank - fc.dim_v
        assert fc.leaf_dim + fc.codim == space.dimension


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES))
def test_multiplicity_agrees_with_the_fraction_length_class(space):
    mult = space.multiplicities
    by_length = {Fraction(norm, SCALE * SCALE): m for norm, m in mult.table.items()}
    for lam in space.root_system.roots:
        assert mult(lam) == by_length[inner(lam, lam)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_dim_k0_is_zero_exactly_when_every_multiplicity_is_one(space):
    # dim k0 is read off the multiplicities, doubled roots included, not stored
    mults = {space.multiplicities(lam) for lam in space.root_system.positive}
    assert space.dim_k0 == (0 if mults == {1} else None)
    (entry,) = [e for e in catalog_entries() if e.key == space.entry_key]
    assert entry.dim_k0 in (0, None) and (entry.dim_k0 is None or space.dim_k0 == 0)


@functools.lru_cache(maxsize=None)
def _span_norms(family, rank) -> dict[tuple[int, ...], Counter]:
    """Each connected set of simple roots -> the squared norms of the positive
    roots in its span, counted off the full root list; once per diagram."""
    rs = build_root_system(family, rank)
    dd = dynkin_diagram(rs)
    connected, grown = set(), {(v,) for v in range(1, rank + 1)}
    while grown:
        connected |= grown
        grown = {tuple(sorted({*c, w})) for c in grown for v in c for w in dd.neighbors(v)} - connected
    result = {}
    for c in sorted(connected):
        result[c] = Counter(sum(x * x for x in lam.scaled) for lam, coeffs in zip(rs.positive, rs.coefficients)
                            if all(i in c for i, x in enumerate(coeffs, 1) if x))
    return result


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_span_counts_of_every_connected_subdiagram_match_the_root_list(space):
    simple_norms = [sum(x * x for x in alpha.scaled) for alpha in build_root_system(space.family, space.rank).simple]
    mult = space.multiplicities.table
    for c, norms in _span_norms(space.family, space.rank).items():
        kind = subdiagram_type(space.diagram, c)
        long, short, doubled = POSITIVE_ROOT_COUNTS[kind.family](kind.rank)
        by_type = Counter({simple_norms[kind.long - 1]: long})
        by_type.update({simple_norms[kind.short - 1]: short, 4 * simple_norms[kind.short - 1]: doubled})
        assert +by_type == norms, (space.name, c, kind)
        assert space.span_counts(c) == (norms.total(), sum(n * mult[x] for x, n in norms.items())), (space.name, c)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_per_space_multiplicities_are_aligned_and_sum_to_the_dimension(space):
    assert sum(map(space.multiplicities, space.root_system.positive)) == space.dimension - space.rank


def _brute_force_orbits(dd) -> dict:
    """Representative -> sorted orbit of every orthogonal subset, from all vertex subsets."""
    verts = [v.index for v in dd.vertices]
    edges = {frozenset((e.i, e.j)) for e in dd.edges}
    orthogonal = [phi for k in range(len(verts) + 1) for phi in itertools.combinations(verts, k)
                  if not any(frozenset(pair) in edges for pair in itertools.combinations(phi, 2))]
    orbits = {tuple(sorted({tuple(sorted(p[i - 1] for i in phi)) for p in diagram_automorphisms(dd)}))
              for phi in orthogonal}
    return {orbit[0]: orbit for orbit in orbits}


def test_cached_phi_orbits_equal_a_fresh_computation():
    brute_force = {}  # (family, rank) -> orbits from all vertex subsets
    for space in SPACES:
        dd = dynkin_diagram(space.root_system)
        key = (space.family, space.rank)
        if key not in brute_force:
            brute_force[key] = _brute_force_orbits(dd)
        table = _phi_orbits(space)
        assert {phi: po.orbit for phi, po in table.items()} == brute_force[key], space.name
        assert list(table) == sorted(table, key=lambda phi: (len(phi), phi))
        assert all(po.phi == phi == min(po.orbit) and po.space is space for phi, po in table.items())
        layers = list(space.orbits.layers())
        assert all(len(po.phi) == k for k, layer in enumerate(layers) for po in layer)
        # a second walk looks each PhiOrbit up: the same objects, not equal copies
        assert [id(po) for layer in layers for po in layer] == list(map(id, table.values()))
        assert set(map(id, space.orbits.by_rep.values())) == set(map(id, table.values()))


def _support_within(rs, lam, indices) -> bool:
    return all(c == 0 for i, c in enumerate(rs.simple_coefficients(lam), start=1)
               if i not in indices)


@settings(max_examples=150, deadline=None)
@given(space_and_phi())
def test_parabolic_data_matches_a_reference_from_the_expansions(case):
    space, phi = case
    rs, mult = space.root_system, space.multiplicities
    sigma = frozenset(lam for lam in rs.roots if _support_within(rs, lam, phi))
    sigma_pos = sigma & frozenset(rs.positive)
    sum_pos = sum(mult(lam) for lam in sigma_pos)
    sum_all = sum(mult(lam) for lam in sigma)
    outside = sum(mult(lam) for lam in rs.positive) - sum_pos
    r, r_phi, k0 = space.rank, len(phi), space.dim_k0

    for space in _cold_then_warm(space, phi):
        d = parabolic_data(space, phi_subset(space, phi))
        assert d.sigma_phi == sigma and d.sigma_phi_pos == sigma_pos
        assert (d.n_sigma_phi, d.n_sigma_phi_pos) == (len(sigma), len(sigma_pos))
        assert (d.dim_a_phi, d.dim_n_phi) == (r - r_phi, outside)
        assert (d.dim_p_phi, d.dim_p_phi_s) == (r + sum_pos, r_phi + sum_pos)
        if k0 is None:
            assert d.dim_g0 is d.dim_l_phi is d.dim_m_phi is d.dim_q_phi is d.dim_k_phi is None
        else:
            dim_l = k0 + r + sum_all
            assert (d.dim_g0, d.dim_l_phi, d.dim_k_phi) == (k0 + r, dim_l, k0 + sum_pos)
            assert (d.dim_m_phi, d.dim_q_phi) == (dim_l - (r - r_phi), dim_l + outside)
        assert d.dim_g_phi == (r_phi + sum_all if k0 == 0 else None)


@settings(max_examples=100, deadline=None)
@given(space_and_phi().filter(lambda case: case[1]))
def test_a_one_component_phi_is_walked_on_each_root_subsystem_call_and_kept_nowhere(case):
    space, phi = case
    component = _components_reference(space, phi)[0]
    rs = space.root_system
    sigma = frozenset(lam for lam in rs.roots if _support_within(rs, lam, component))
    sigma_pos = sigma & frozenset(rs.positive)
    clear_caches()
    space = catalog_lookup(space.name)  # with nothing kept on it
    subset = phi_subset(space, component)
    walked = []

    def counted(family, rank, dd, indices):
        walked.append(indices)
        return span_roots(family, rank, dd, indices)

    with mock.patch.object(parabolic, "span_roots", counted):
        horospherical(space, subset)  # fills the component with its counts and factor
        d = parabolic_data(space, subset)  # reads the counts
        assert walked == [] and (d.n_sigma_phi, d.n_sigma_phi_pos) == (len(sigma), len(sigma_pos))
        first = root_subsystem(space, subset)
        assert first == (sigma, sigma_pos) and walked == [component]
        assert (d.sigma_phi, d.sigma_phi_pos) == (sigma, sigma_pos) and walked == [component] * 3
        again = root_subsystem(space, subset)  # walked again: no set was kept
        assert again == first and again[0] is not first[0] and walked == [component] * 4
        data = d.to_dict()
        assert walked == [component] * 5
    assert data["sigma_phi"] == [list(lam.scaled) for lam in sorted(sigma)]
    assert data["sigma_phi_pos"] == [list(lam.scaled) for lam in sorted(sigma_pos)]


def _phi_near_the_ends(r: int):
    """Every Phi of at most two vertices, and every Phi that omits at most two."""
    everything = range(1, r + 1)
    for k in sorted({0, 1, 2, r - 2, r - 1, r} & set(range(r + 1))):
        yield from itertools.combinations(everything, k)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_the_record_counts_equal_the_sizes_of_the_root_sets(space):
    for phi in _phi_near_the_ends(space.rank):
        subset = phi_subset(space, phi)
        d = parabolic_data(space, subset)
        sigma, sigma_pos = root_subsystem(space, subset)
        assert (d.n_sigma_phi, d.n_sigma_phi_pos) == (len(sigma), len(sigma_pos)), (space.name, phi)


@st.composite
def phi_of_components(draw, count):
    """A space and a Phi of no component (count 0), of one, grown from a vertex
    one neighbour at a time (count 1), or of at least two (count 2)."""
    space = draw(st.sampled_from([s for s in SPACES if s.rank >= 2 * count - 1]))
    if count == 0:
        return space, ()
    if count == 1:
        component = {draw(st.integers(1, space.rank))}
        for _ in range(draw(st.integers(0, space.rank - 1))):
            component.add(draw(st.sampled_from(sorted({w for v in component
                                                       for w in space.diagram.neighbors(v)} - component or component))))
        return space, tuple(sorted(component))
    phi = draw(st.sets(st.integers(1, space.rank), min_size=2).map(sorted).filter(
        lambda phi: len(_components_reference(space, phi)) >= 2))
    return space, tuple(phi)


@pytest.mark.parametrize("count", [0, 1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_warm_call_equals_a_cold_one(count, data):
    # Warm: once the other call filled Phi's components (horospherical builds no
    # root set, parabolic_data does), and once more with everything in place.
    space, phi = data.draw(phi_of_components(count))
    assert min(len(_components_reference(space, phi)), 2) == count
    for fn, other in ((parabolic_data, horospherical), (horospherical, parabolic_data)):
        clear_caches()
        cold = fn(catalog_lookup(space.name), phi_subset(space, phi))
        clear_caches()
        space = catalog_lookup(space.name)  # with nothing kept on it
        other(space, phi_subset(space, phi))
        warm = fn(space, phi_subset(space, phi))
        again = fn(space, phi_subset(space, phi))
        assert cold == warm == again, (space.name, phi, fn.__name__)


def _check_boundary_factors(space, phi):
    rs, mult = space.root_system, space.multiplicities
    factors = boundary_components(space, phi_subset(space, phi))
    assert [f.component_indices for f in factors] == _components_reference(space, phi) == \
        dynkin_diagram(rs).connected_components(phi)
    for f in factors:
        k = f.rank
        pos = [lam for lam in rs.positive if _support_within(rs, lam, f.component_indices)]
        assert k == len(f.component_indices)
        assert f.dim == k + sum(mult(lam) for lam in pos)
        # A connected reduced subsystem with one root length and k(k+1)/2
        # positive roots is A_k; with all multiplicities one its factor is
        # SL_{k+1}(R)/SO_{k+1}.
        split_a = (len(pos) == k * (k + 1) // 2
                   and len({inner(lam, lam) for lam in pos}) == 1
                   and all(mult(lam) == 1 for lam in pos))
        assert f.name == (f"SL_{k + 1}(R)/SO_{k + 1}" if split_a else f"unnamed rank-{k} factor"), \
            (space.name, phi)


@settings(max_examples=150, deadline=None)
@given(space_and_phi())
def test_boundary_factors_match_a_per_component_reference(case):
    for space in _cold_then_warm(*case):
        _check_boundary_factors(space, case[1])


@pytest.mark.parametrize("space", [s for s in SPACES if s.rank <= 6], ids=lambda s: s.name)
def test_every_boundary_factor_up_to_rank_6_matches_the_reference(space):
    for k in range(space.rank + 1):
        for phi in itertools.combinations(range(1, space.rank + 1), k):
            _check_boundary_factors(space, phi)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_the_json_writer_gives_the_bytes_of_json_dumps(space):
    # codim r has dim V = 0 in every record and codim 0 only the trivial one, so four
    # fields spliced out of order differ from to_dict on some option
    for include_trivial in (False, True):
        for codim in (None, 0, 1, space.rank):
            classes = enumerate_foliations(space, include_trivial=include_trivial, codim=codim)
            expected = json.dumps([c.to_dict() for c in classes], indent=2, ensure_ascii=False) + "\n"
            with contextlib.redirect_stdout(io.StringIO()) as out:
                write_json(iter_foliations(space, include_trivial=include_trivial, codim=codim))
            assert out.getvalue() == expected, (include_trivial, codim)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_the_trivial_record_is_put_back_at_index_r(space):
    records = enumerate_foliations(space)
    assert type(records) is tuple and enumerate_foliations(space) is records
    with_trivial = enumerate_foliations(space, include_trivial=True)
    r = space.rank
    assert with_trivial == records[:r] + (with_trivial[r],) + records[r:]
    assert with_trivial[r].trivial and (with_trivial[r].phi, with_trivial[r].dim_v) == ((), r)
    assert tuple(iter_foliations(space, include_trivial=True)) == with_trivial


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES))
def test_reflections_in_simple_roots_preserve_the_root_system(space):
    rs = space.root_system
    for alpha in rs.simple:
        assert {reflect(alpha, lam) for lam in rs.roots} == rs.roots
