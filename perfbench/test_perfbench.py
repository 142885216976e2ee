"""Tests of the benchmark itself (not of liefoliate).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, oracles, workloads
from perfbench.inputs import Request
from perfbench.tracing import Tracer

workloads.import_package()
from liefoliate import (  # noqa: E402
    build_root_system,
    catalog_lookup,
    dynkin_diagram,
    enumerate_foliations,
    horospherical,
    parabolic_data,
    phi_subset,
)

FAKE_CLASSES = {n: [((1,), 0), ((), 1), ((1, 3), 0)] for n in inputs.S_PHI_V_SIZES}


def generate(workload: str, seed: int, pass_index: int = 0) -> list[Request]:
    if workload == "cli_cold":
        return inputs.cli_requests(seed, pass_index)
    if workload == "structure_warm":
        return inputs.structure_requests(seed, pass_index)
    return inputs.matrix_requests(seed, pass_index, FAKE_CLASSES)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = inputs.fingerprint(generate(workload, 7))
    assert first == inputs.fingerprint(generate(workload, 7))
    assert first != inputs.fingerprint(generate(workload, 8))
    assert first != inputs.fingerprint(generate(workload, 7, pass_index=1))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_seed_draws_the_same_mix(workload):
    def mix(requests):
        return sorted((r.kind, r.expect[0].family if r.expect and isinstance(r.expect[0], oracles.Space)
                       else "") for r in requests)
    assert mix(generate(workload, 1)) == mix(generate(workload, 2))


def test_lie_triple_and_s_phi_v_costs_do_not_depend_on_the_seed():
    def sizes(seed):
        requests = generate("matrix_model", seed, pass_index=2)
        return ([len(r.args[0]) for r in requests if r.kind == "lie_triple"],
                sorted(r.args for r in requests if r.kind == "s_phi_v"))
    first, other = sizes(1), sizes(2)
    assert sorted(first[0]) == sorted(other[0]) and first[1] == other[1]


def test_shaped_phi_keeps_the_block_sizes_and_moves_the_blocks():
    import random
    drawn = {inputs.shaped_phi(6, 0, 2, random.Random(seed)) for seed in range(20)}
    assert len(drawn) > 1
    assert len({tuple(sorted(map(len, inputs._blocks(6, set(phi))))) for phi in drawn}) == 1


def test_end_to_end_uses_each_requests_fastest_time():
    metrics = workloads.end_to_end([0.004, 0.001, 0.002, 0.003] * 25)
    assert metrics["ops_per_s"] == pytest.approx(100 / 0.25)
    assert metrics["latency_p50_ms"] == pytest.approx(2.5)
    assert metrics["latency_p90_ms"] == pytest.approx(4.0)


def test_cli_mix_covers_the_catalog_and_malformed_share():
    requests = inputs.cli_requests(3, 0)
    keys = {r.expect[0].key for r in requests if r.kind in ("parabolic", "horospherical", "foliations")}
    assert keys == set(inputs.ENTRY)
    malformed = [r for r in requests if r.kind == "malformed"]
    assert len(requests) == 105 and len(malformed) == 5
    assert max(r.expect[0].rank for r in requests if r.kind == "parabolic") >= 14


def test_entry_spellings_resolve_to_the_entry():
    for entry in inputs.ENTRIES:
        for rank in {entry.min_rank, entry.min_rank + 2}:
            for n in range(*(entry.n_range or (0, 0))) or (0,):
                if not entry.has_rank(rank):
                    continue
                for name in entry.names(rank, n):
                    space = catalog_lookup(name)
                    assert (space.entry_key, space.family.value, space.rank) == (entry.key, entry.family, rank)


# --- the oracles agree with closed forms and with the package ---------------


def oracle_space(key: str, rank: int, n: int = 0) -> oracles.Space:
    entry = inputs.ENTRY[key]
    return oracles.Space(key, entry.family, rank, tuple(sorted(entry.mults(n).items())))


@pytest.mark.parametrize("key, rank, n, dim", [
    ("sl_R", 4, 0, 14), ("sl_C", 3, 0, 15), ("sl_H", 2, 0, 2 * 9 - 3 - 1),
    ("so_pq", 3, 2, 15), ("so_hyp", 1, 4, 5), ("so_C_odd", 3, 0, 21), ("so_C_even", 4, 0, 28),
    ("sp_R", 3, 0, 12), ("su_rr", 3, 0, 18), ("su_pq", 2, 3, 20), ("sp_pq", 2, 1, 24),
    ("sp_rr", 2, 0, 16), ("so_rr", 4, 0, 16), ("e6_m26", 2, 0, 26), ("e6_m14", 2, 0, 32),
    ("f4_m20", 1, 0, 16), ("e8_8", 8, 0, 128), ("e7_7", 7, 0, 70), ("e6_6", 6, 0, 42),
    ("f4_4", 4, 0, 28), ("g2_2", 2, 0, 8), ("e7_m25", 3, 0, 54), ("e6_2", 4, 0, 40),
])
def test_oracle_dimension_matches_classical_formulas(key, rank, n, dim):
    assert oracles.dimension(oracle_space(key, rank, n)) == dim


@pytest.mark.parametrize("family, ranks", [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(3, 9)),
    ("BC", range(1, 9)), ("E6", (6,)), ("E7", (7,)), ("E8", (8,)), ("F4", (4,)), ("G2", (2,)),
])
def test_oracle_root_counts_and_diagrams_match_the_package(family, ranks):
    for r in ranks:
        rs = build_root_system(family, r)
        assert oracles.check_rootsys(family, r, rs.to_dict()) == []
        assert oracles.check_dynkin(family, r, dynkin_diagram(rs).to_dict()) == []


def test_oracle_orbit_counts_match_known_values():
    assert oracles.foliation_record_count("A", 4) == 18  # SL5
    assert oracles.foliation_record_count("A", 1) == 2
    assert len(oracles.phi_orbits("D", 4)) == len({(), (1,), (2,), (1, 3), (1, 3, 4)})


# --- each oracle rejects a deliberately wrong value -------------------------


SL5 = oracle_space("sl_R", 4)
SU42 = oracle_space("su_pq", 2, 2)


def test_parabolic_oracle_rejects_a_wrong_dimension():
    out = parabolic_data(catalog_lookup("SL5"), phi_subset(catalog_lookup("SL5"), (1, 2))).to_dict()
    assert oracles.check_parabolic(SL5, (1, 2), out) == []
    assert oracles.check_parabolic(SL5, (1, 2), {**out, "dim_n_phi": out["dim_n_phi"] + 1})
    assert oracles.check_parabolic(SL5, (1, 2), {**out, "sigma_phi_pos": out["sigma_phi_pos"][1:]})


def test_horospherical_oracle_rejects_a_wrong_dimension():
    space = catalog_lookup("su(4,2)")
    out = horospherical(space, phi_subset(space, (2,))).to_dict()
    assert oracles.check_horospherical(SU42, (2,), out) == []
    assert oracles.check_horospherical(SU42, (2,), {**out, "dim_N": out["dim_N"] - 1})
    assert oracles.check_horospherical(SU42, (2,), {**out, "dim_M": out["dim_M"] + 1})


def test_dimension_oracle_rejects_a_wrong_value():
    assert oracles.check_dimension(SL5, 14) == []
    assert oracles.check_dimension(SL5, 15)


def test_foliation_oracle_rejects_wrong_records():
    records = [(c.phi, c.dim_v, c.codim, c.leaf_dim, c.dim_n_phi, len(c.orbit))
               for c in enumerate_foliations(catalog_lookup("SL5"))]
    assert oracles.check_foliations(SL5, records) == []
    assert oracles.check_foliations(SL5, records[1:])
    phi, dim_v, codim, leaf, dim_n, orbit = records[0]
    assert oracles.check_foliations(SL5, [(phi, dim_v, codim + 1, leaf - 1, dim_n, orbit)] + records[1:])
    assert oracles.check_foliations(SL5, [(phi, dim_v, codim, leaf, dim_n, orbit + 1)] + records[1:])


def test_root_system_oracles_reject_wrong_answers():
    rs = build_root_system("F4", 4).to_dict()
    assert oracles.check_rootsys("F4", 4, {**rs, "positive": rs["positive"][:-1]})
    dd = dynkin_diagram(build_root_system("C", 3)).to_dict()
    assert oracles.check_dynkin("B", 3, dd)
    keys = [e.key for e in inputs.ENTRIES]
    assert oracles.check_catalog(keys, inputs.ENTRY) == []
    assert oracles.check_catalog(keys[1:], inputs.ENTRY)


def test_matrix_oracles_reject_wrong_values():
    gen = np.random.default_rng(0)
    g = inputs.random_sl(4, gen)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    k, r = q * signs, r * signs[:, None]
    a, n = np.diag(np.diag(r)), r / np.diag(r)[:, None]
    assert oracles.check_iwasawa(g, k, a, n) == []
    assert oracles.check_iwasawa(g, k, a, n + np.triu(np.full((4, 4), 1e-6), 1))
    assert oracles.check_iwasawa(g, k, a, n.T)
    x, y = inputs.random_traceless(3, gen), inputs.random_traceless(3, gen)
    value = 6.0 * float(np.trace(x @ y))
    assert oracles.check_killing(x, y, value) == []
    assert oracles.check_killing(x, y, value + 1e-6 * max(1.0, abs(value)))
    assert oracles.check_lie_triple(True, True, 1e-15) == []
    assert oracles.check_lie_triple(True, True, 1e-9)
    assert oracles.check_lie_triple(False, True, 2.0)
    assert oracles.check_closure(10, 10, 1e-15) == []
    assert oracles.check_closure(10, 10, 1e-11)
    assert oracles.check_closure(10, 11, 0.0)
    points = oracles.halfplane_points("K", 8, 0.5 + 1.5j)
    assert oracles.check_halfplane("K", 8, 0.5 + 1.5j, points) == []
    assert oracles.check_halfplane("K", 8, 0.5 + 1.5j, points[:-1] + [points[-1] + 1e-9])
    assert oracles.check_halfplane("N", 8, 0.5 + 1.5j, points)


def test_halfplane_oracle_agrees_with_moebius_geometry():
    base = -1.0 + 0.7j
    for z in oracles.halfplane_points("K", 12, base):  # K fixes i: a hyperbolic circle about i
        assert math.isclose(abs(z - 1j) ** 2 / (z.imag), abs(base - 1j) ** 2 / base.imag)
    assert all(math.isclose(z.imag, base.imag) for z in oracles.halfplane_points("N", 5, base))


# --- failures are counted ---------------------------------------------------


NAN = Request("malformed", ("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[NaN,0],[0,1]]"),
              ("nan_matrix",))


def test_malformed_request_with_exit_zero_is_a_failure():
    assert workloads.check_cli(NAN, 0, b'{"k": [[NaN]]}')
    assert workloads.check_cli(NAN, 1, b"{}")
    assert workloads.check_cli(NAN, 2, b"")
    assert workloads.check_cli(NAN, 1, b"") == []
    tally = workloads.Tally()
    tally.add(workloads.check_cli(NAN, 0, b"NaN"), NAN, "test")
    tally.add([], Request("catalog", ()), "test")
    assert (tally.attempted, tally.failed, tally.wrong_valid) == (2, 1, 0)
    assert tally.examples


def test_valid_request_needs_exit_zero_and_strict_json():
    req = Request("catalog", ("catalog", "list", "--format", "json"))
    good = json.dumps([{"key": k} for k in inputs.ENTRY]).encode()
    assert workloads.check_cli(req, 0, good) == []
    assert workloads.check_cli(req, 1, good)
    assert workloads.check_cli(req, 0, b"[NaN]")
    assert workloads.check_cli(req, 0, b"not json")


def test_in_process_cli_counts_the_nan_defect_and_accepts_valid_answers():
    run = workloads.InProcessCli()
    _, errors = run(NAN)
    assert errors  # known defect: exits 0 and prints NaN
    valid = [r for r in inputs.cli_requests(5, 0) if r.kind != "malformed" and
             (r.kind not in ("parabolic", "horospherical", "foliations") or r.expect[0].rank <= 5)]
    for req in valid[:30]:
        assert run(req)[1] == [], req


# --- tracing ------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = lambda: sum(range(20000))  # noqa: E731

    def outer():
        return tracer.span("child", inner) + tracer.span("child", inner)

    tracer.span("parent", outer)
    (_, child, parent, *_), = [s for s in tracer.spans if s[3] == "child"][:1]
    assert tracer.calls == {"child": 2, "parent": 1}
    parent_total = [s[5] - s[4] for s in tracer.spans if s[3] == "parent"][0]
    child_total = sum(s[5] - s[4] for s in tracer.spans if s[3] == "child")
    assert math.isclose(tracer.self_s["parent"], parent_total - child_total, rel_tol=1e-9, abs_tol=1e-12)
    assert parent == [s[1] for s in tracer.spans if s[3] == "parent"][0]


def test_installed_tracer_sees_nested_library_calls_and_restores_them():
    from liefoliate import foliations, parabolic
    original = parabolic.parabolic_data
    tracer = Tracer()
    with tracer.installed():
        records = foliations.enumerate_foliations(catalog_lookup("SL5"))
    assert parabolic.parabolic_data is original and foliations.parabolic_data is original
    assert tracer.calls["foliations.enumerate_foliations"] == 1
    assert tracer.calls["parabolic.parabolic_data"] == len(oracles.phi_orbits("A", 4))
    assert tracer.records == len(records) == 18


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["cli_cold", "structure_warm"]
    assert set(inputs.WORKLOADS) == {"cli_cold", "structure_warm", "matrix_model"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert all(m["unit"] == workloads.unit(m["name"]) for m in spec["per_layer"])
