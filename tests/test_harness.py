import dataclasses
import gc
import hashlib
import json
import os
from collections import Counter
from fractions import Fraction

import pytest

from hookshift import (
    Fault,
    IdentityId,
    Partition,
    check_identity,
    cli,
    enumerate_partitions,
    harness,
    identities,
    parse_partition,
    schur,
)
from hookshift.harness import (
    SweepConfig,
    _identity_unit,
    _task_failed,
    _theorem_unit,
    render_report,
    run_sweep,
)
from hookshift.polynomials import ExactPolynomial


def small_config(**kw):
    base = dict(max_n_identities=4, max_n_theorem_1_2=2, max_n_oracles=2, parallelism=1)
    base.update(kw)
    return SweepConfig(**base)


def _doubled(side):
    return {lam: 2 * c for lam, c in side.items()}


# --- configuration ------------------------------------------------------------

def test_config_defaults():
    cfg = SweepConfig()
    assert cfg.max_n_identities == 25
    assert cfg.max_n_theorem_1_2 == 9
    assert cfg.max_n_oracles == 8
    assert cfg.identities == tuple(IdentityId)


def test_auto_workers_count_the_cpus_this_process_may_run_on(monkeypatch):
    # an affinity mask or a cpuset of one CPU gets one worker, however
    # many CPUs the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert SweepConfig().workers() == 1
    # where the platform has no affinity call, the machine's count, or 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert SweepConfig().workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert SweepConfig().workers() == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_n_identities=0)
    with pytest.raises(ValueError):
        # the oracle runs only at the Schur degrees
        SweepConfig(max_n_theorem_1_2=2, max_n_oracles=8)
    # a small identity bound does not cap it
    assert SweepConfig(max_n_identities=3).max_n_oracles == 8
    with pytest.raises(ValueError):
        SweepConfig(output_format="xml")
    with pytest.raises(ValueError):
        SweepConfig(identities=("THM_1_1",))
    with pytest.raises(ValueError):
        # an empty selection would check no catalog identity
        SweepConfig(identities=())
    with pytest.raises(ValueError):
        SweepConfig(parallelism=0)
    with pytest.raises(ValueError):
        # the sweep would never reach the faulted partition
        SweepConfig(
            max_n_identities=3,
            fault=Fault(kind="hook", partition=Partition((5,)), row=1, col=1),
        )


@pytest.mark.parametrize(
    "field", ["max_n_identities", "max_n_theorem_1_2", "max_n_oracles", "parallelism"]
)
def test_config_rejects_bool_bounds_and_parallelism(field):
    # True is an int to isinstance, but a report echoing it as a bound or
    # a worker count would say "true"
    with pytest.raises(ValueError, match=field):
        small_config(**{field: True})


def test_identity_selection_normalized_to_catalog_order():
    cfg = small_config(identities=(IdentityId.COR_4_4, IdentityId.THM_1_1))
    assert cfg.identities == (IdentityId.THM_1_1, IdentityId.COR_4_4)


# --- sweeping -------------------------------------------------------------------

def test_minimal_sweep_all_pass():
    report = run_sweep(SweepConfig(max_n_identities=1, max_n_theorem_1_2=1,
                                   max_n_oracles=1, parallelism=1))
    totals = report.totals()
    assert totals["failed"] == 0
    assert report.all_passed
    per = report.per_identity()
    # p(1) = 1 partition, one outcome per identity at n = 1
    for identity in IdentityId:
        assert per[identity.value]["checked"] == 1
        assert per[identity.value]["failures"] == []


def test_sweep_counts_are_consistent():
    report = run_sweep(small_config())
    for row in report.identity_rows:
        assert row["checked"] == row["passed"] + len(row["failures"])


def test_report_json_schema():
    report = run_sweep(small_config())
    doc = json.loads(render_report(report))
    assert list(doc.keys()) == ["config", "identities", "theorem_1_2", "totals", "timing"]
    assert doc["totals"]["checked"] == doc["totals"]["passed"] + doc["totals"]["failed"]
    assert set(doc["identities"]) == {i.value for i in IdentityId}
    for row in doc["theorem_1_2"]:
        assert set(row) >= {"n", "equality", "recurrences", "oracle"}
    assert set(doc["timing"]) == {"wall_seconds", "workers"}
    assert "parallelism" not in doc["config"]


# sha256 of the report minus "timing", serialized with sorted keys; each
# digest was taken from the code that decided every polynomial identity
# on the full g-polynomials, before the tail cancellation
PINNED_REPORTS = {
    "clean-n12": (
        {},
        "6048d7625bb58ed2498d5eb671725b5562827763708b017bed466878e3f02819",
    ),
    "hook-fault-n9": (
        {"max_n_identities": 9,
         "fault": Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2)},
        "7605690c1b7a981f7dce42c1632f50256b0c6ee860446e9bc53545338eefcd72",
    ),
    "g-factor-fault-n9": (
        {"max_n_identities": 9,
         "fault": Fault(kind="g-factor", partition=Partition((3, 3, 1)), index=7, delta=-2)},
        "36e00de1c077bdd36ebc391ae544341ef7a0a703e0f20c157be82af271f21594",
    ),
    # taken from the code that compared coefficient lists: a fault of
    # delta 10**6 puts large signed coefficients into the witnesses
    "g-factor-fault-big-delta-n9": (
        {"max_n_identities": 9,
         "fault": Fault(kind="g-factor", partition=Partition((4, 2, 1)), index=3, delta=10**6)},
        "54ba46fa12a6804938d675101bf48cd01195a8c4b4065e70cf30020548e9b528",
    ),
    "hook-fault-big-delta-n9": (
        {"max_n_identities": 9,
         "fault": Fault(kind="hook", partition=Partition((4, 2, 1)), row=1, col=2, delta=10**6)},
        "efa25c6005600f2dbe4c4d0a610434aa4ba145e8193c292faf49f78df649c7cc",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(case):
    overrides, digest = PINNED_REPORTS[case]
    config = dict(max_n_identities=12, max_n_theorem_1_2=4, max_n_oracles=4,
                  parallelism=1, capture_witnesses=True)
    config.update(overrides)
    body = run_sweep(SweepConfig(**config)).to_json()
    del body["timing"]
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == digest


def test_schur_failure_report_bytes_are_pinned(monkeypatch):
    # sha256 of the rendered json report, timing zeroed, with the right
    # side doubled at degree 3; the bytes hold the row key order and the
    # witness text of a failing equality and two failing recurrences
    rhs = schur.schur_rhs
    for module in (schur, harness):
        monkeypatch.setattr(module, "schur_rhs", lambda n: _doubled(rhs(n)) if n == 3 else rhs(n))
    report = run_sweep(SweepConfig(max_n_identities=4, max_n_theorem_1_2=4, max_n_oracles=4,
                                   parallelism=1, capture_witnesses=True))
    assert [row["n"] for row in report.theorem_rows if _task_failed(row)] == [3, 4]
    report.wall_time = 0.0
    digest = hashlib.sha256(render_report(report).encode()).hexdigest()
    assert digest == "26340a649b301c6301dd3b26f57a313abe92d102b822578d21b74e04246ee9ed"


@pytest.mark.parametrize("capture", [False, True], ids=["plain", "capture"])
@pytest.mark.parametrize(
    "fault",
    [
        None,
        Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2),
        Fault(kind="g-factor", partition=Partition((3, 3, 1)), index=7, delta=-2),
    ],
    ids=["clean", "hook", "g-factor"],
)
def test_identity_unit_matches_check_identity(fault, capture):
    # the sweep runs the checkers on each context directly; its rows are
    # the ones check_identity's outcomes add up to
    for n in range(1, 11):
        expected = []
        for identity in IdentityId:
            row = {"identity": identity.value, "n": n, "checked": 0, "passed": 0,
                   "failures": [], "witnesses": []}
            for lam in enumerate_partitions(n):
                for outcome in check_identity(identity, lam, fault):
                    row["checked"] += 1
                    row["passed"] += outcome.passed
                    entry = outcome.to_json()
                    if not outcome.passed:
                        del entry["status"]
                        row["failures"].append(entry)
                    elif capture:
                        row["witnesses"].append(entry)
            expected.append(row)
        assert _identity_unit(n, tuple(IdentityId), fault, capture) == expected, n


def test_identity_unit_runs_each_check_once_per_identity_and_partition(monkeypatch):
    # each selected identity's check runs once per context, REC_1_2, REC_1_3
    # and COR_4_4 included, though they share one check function
    before = {n: _identity_unit(n, tuple(IdentityId), None, True) for n in range(1, 8)}
    calls = Counter()
    for identity, (check, report) in list(identities._CHECKERS.items()):
        def counting(ctx, identity=identity, check=check):
            calls[identity, ctx.lam] += 1
            return check(ctx)

        monkeypatch.setitem(identities._CHECKERS, identity, (counting, report))
    for n in range(1, 8):
        assert _identity_unit(n, tuple(IdentityId), None, True) == before[n], n
    assert calls == {(identity, lam): 1 for identity in IdentityId
                     for n in range(1, 8) for lam in enumerate_partitions(n)}
    # an identity left out of the selection runs nothing
    calls.clear()
    chosen = (IdentityId.REC_1_3, IdentityId.THM_4_2)
    _identity_unit(6, chosen, None, False)
    assert calls == {(identity, lam): 1 for identity in chosen for lam in enumerate_partitions(6)}


def test_one_comparison_site_decides_every_caller(monkeypatch):
    # a planted check compares 0 with 0, 7 with 7 and 7 with 8: only the
    # equal nonzero pair passes, in check_identity and in the sweep alike
    def planted(ctx):
        return [(None, 0, 0), (1, 7, 7), (2, 7, 8)]

    monkeypatch.setitem(identities._CHECKERS, IdentityId.THM_1_1,
                        (planted, lambda ctx, lhs, rhs: (lhs, rhs)))
    single = Partition((1,))
    assert [(o.corner_index, o.status, o.lhs, o.rhs)
            for o in check_identity(IdentityId.THM_1_1, single)] == [
        (None, "fail", 0, 0), (1, "pass", 7, 7), (2, "fail", 7, 8)]
    chosen = (IdentityId.THM_1_1,)
    [row] = _identity_unit(1, chosen, None, False)
    assert (row["checked"], row["passed"], row["witnesses"]) == (3, 1, [])
    assert [(f["corner_index"], f["lhs"], f["rhs"]) for f in row["failures"]] == [
        (None, "0/1", "0/1"), (2, "7/1", "8/1")]
    [captured] = _identity_unit(1, chosen, None, True)
    assert captured["failures"] == row["failures"]
    assert captured["witnesses"] == [{"identity": "THM_1_1", "partition": "1",
                                      "corner_index": 1, "status": "pass",
                                      "lhs": "7/1", "rhs": "7/1"}]
    # the counts add up over the contexts, one count per identity
    ws = identities.Workspace()
    counts = [0, 0]
    found = identities.outcomes((IdentityId.THM_1_1, IdentityId.REC_1_3),
                                map(ws.context, enumerate_partitions(4)), counts, False)
    assert [(k, o.partition, o.corner_index) for k, o in found] == [
        (0, lam, corner) for lam in enumerate_partitions(4) for corner in (None, 2)]
    assert counts == [3 * 5, 5]


# The six identities whose sides all carry the product of the removals'
# hook products, through mu_h_prod, the weights or corner_sum
HOOK_WEIGHTED = {"THM_1_1", "REC_1_2", "REC_1_3", "THM_4_1", "THM_4_2", "COR_4_4"}


def test_zero_sides_fail(monkeypatch, capsys):
    # a zero product of the removals' hook products, as a bug in
    # Workspace.context could make, turns six comparisons into 0 == 0;
    # the sweep itself must fail them, with no help from a test
    context = identities.Workspace.context

    def zeroed(self, lam):
        ctx = context(self, lam)
        return dataclasses.replace(ctx, mu_h_prod=0, weights=(0,) * len(ctx.weights),
                                   corner_sum=0)

    monkeypatch.setattr(identities.Workspace, "context", zeroed)
    per = run_sweep(small_config(max_n_identities=6)).per_identity()
    for identity, agg in per.items():
        assert agg["passed"] == (0 if identity in HOOK_WEIGHTED else agg["checked"]), identity
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for identity in IdentityId:
                for outcome in check_identity(identity, lam):
                    assert outcome.passed != (identity.value in HOOK_WEIGHTED), (identity, lam)
    assert cli.main(["sweep", "--max-n", "10", "--max-n-schur", "3", "--jobs", "1",
                     "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "totals: checked 1683, passed 855, failed 828\n" in out


def test_report_deterministic_across_runs():
    cfg = small_config()
    a = json.loads(render_report(run_sweep(cfg)))
    b = json.loads(render_report(run_sweep(cfg)))
    del a["timing"], b["timing"]
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize(
    "fault",
    [
        None,
        Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2, delta=10**6),
        Fault(kind="g-factor", partition=Partition((3, 3, 1)), index=7, delta=-2),
    ],
    ids=["clean", "hook", "g-factor"],
)
def test_report_independent_of_worker_count(fault):
    # witness sides, failing ones included, are read back in the workers
    cfg = dict(max_n_identities=7, capture_witnesses=True, fault=fault)
    a = json.loads(render_report(run_sweep(small_config(parallelism=1, **cfg))))
    b = json.loads(render_report(run_sweep(small_config(parallelism=2, **cfg))))
    assert (a.pop("timing")["workers"], b.pop("timing")["workers"]) == (1, 2)
    assert json.dumps(a) == json.dumps(b)


def test_identity_subset_sweep():
    cfg = small_config(identities=(IdentityId.THM_1_1,))
    doc = json.loads(render_report(run_sweep(cfg)))
    assert list(doc["identities"]) == ["THM_1_1"]
    # p(1..4) = 1, 2, 3, 5
    assert doc["identities"]["THM_1_1"]["checked"] == 11


def test_witness_capture_records_passes():
    cfg = small_config(
        max_n_identities=17,
        identities=(IdentityId.THM_4_2,),
        capture_witnesses=True,
    )
    doc = json.loads(render_report(run_sweep(cfg)))
    witnesses = doc["identities"]["THM_4_2"]["witnesses"]
    target = [w for w in witnesses if w["partition"] == "5,5,3,3,1"]
    assert len(target) == 1
    assert target[0]["status"] == "pass"
    assert target[0]["rhs"] == [[2, "17/1"], [1, "-38/1"], [0, "-75/1"]]


def test_injected_fault_mode_reports_failures():
    fault = Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=1)
    report = run_sweep(small_config(fault=fault))
    assert not report.all_passed
    doc = json.loads(render_report(report))
    failures = [f for agg in doc["identities"].values() for f in agg["failures"]]
    assert failures
    for f in failures:
        assert set(f) == {"identity", "partition", "corner_index", "lhs", "rhs"}
        assert f["lhs"] is not None and f["rhs"] is not None


def test_fail_fast_stops_early():
    fault = Fault(kind="hook", partition=Partition((1,)), row=1, col=1, delta=1)
    full = run_sweep(small_config(fault=fault))
    fast = run_sweep(small_config(fault=fault, fail_fast=True))
    assert not fast.all_passed
    assert len(fast.identity_rows) + len(fast.theorem_rows) < len(full.identity_rows) + len(
        full.theorem_rows
    )


def test_fault_reaches_the_next_size_unit():
    # the n = 4 unit builds its own Workspace, which must still apply the
    # fault where (2,1) appears as a corner removal
    fault = Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=1)
    report = run_sweep(small_config(max_n_identities=5, fault=fault))
    failed_at = {
        f["partition"] for agg in report.per_identity().values() for f in agg["failures"]
    }
    assert {parse_partition(p).size for p in failed_at - {"2,1"}} == {4}


# Which identities catch a fault of each kind; measured all-or-nothing over
# every fault on partitions of size <= 5.  REMARK_DN cannot see a g-factor
# fault (the n-fold difference of any monic degree-n polynomial is n!);
# REC_1_2, REC_1_3, THM_4_2 and COR_4_4 read no g, QUOTIENT_4_2 and EQ_4_6
# no hook length.
SENSITIVITY = {
    "hook": {"THM_1_1", "REC_1_2", "REC_1_3", "REMARK_DN", "CORNER_RATIO_2_2",
             "THM_4_1", "THM_4_2", "COR_4_4"},
    "g-factor": {"THM_1_1", "CORNER_RATIO_2_2", "QUOTIENT_4_2", "THM_4_1", "EQ_4_6"},
}


def _all_faults(max_n):
    for n in range(1, max_n + 1):
        for lam in enumerate_partitions(n):
            for cell in lam.cells():
                yield Fault(kind="hook", partition=lam, row=cell.row, col=cell.col)
            for index in range(1, n + 1):
                yield Fault(kind="g-factor", partition=lam, index=index)


def test_fault_sensitivity_matrix():
    caught = {kind: Counter() for kind in SENSITIVITY}
    faults = Counter()
    for fault in _all_faults(4):
        report = run_sweep(small_config(max_n_theorem_1_2=1, max_n_oracles=1, fault=fault))
        faults[fault.kind] += 1
        for identity, agg in report.per_identity().items():
            if agg["failures"]:
                caught[fault.kind][identity] += 1
            if identity == "REMARK_DN":
                # it reads only the partition's own H
                assert {f["partition"] for f in agg["failures"]} <= {str(fault.partition)}
    assert faults == {"hook": 34, "g-factor": 34}
    for kind, catchers in SENSITIVITY.items():
        expected = {i.value: faults[kind] if i.value in catchers else 0 for i in IdentityId}
        assert {i.value: caught[kind][i.value] for i in IdentityId} == expected, kind


def test_oracle_catches_term_maps_wrong_the_same_way(monkeypatch):
    assert [row["oracle"] for row in _theorem_unit(8, 8)] == ["pass"] * 9
    # both sides doubled: the Schur-basis comparison and the recurrences
    # still hold, and only the evaluation at a point sees the error
    rhs = schur.schur_rhs

    def doubled(n, *table):
        return _doubled(rhs(n))

    for module in (schur, harness):
        for name in ("schur_lhs", "schur_rhs"):
            monkeypatch.setattr(module, name, doubled)
    rows = _theorem_unit(8, 8)
    assert [row["n"] for row in rows] == list(range(9))
    for n, row in enumerate(rows):
        assert row["equality"] == "pass", n
        assert row["recurrences"] == (None if n == 0 else "pass"), n
        assert row["oracle"] == "fail", n


@pytest.mark.parametrize("degree", [9, 8])
def test_recurrences_miss_an_error_constant_in_x(degree, monkeypatch):
    # 1 added to one coefficient of the degree-n right side cancels in
    # T_n(x) - T_n(x-1), so the degree-n recurrence passes; the degree
    # n + 1 recurrence sees it through its previous side.  At the top
    # degree, past the oracle's bound, only equality fails.
    rhs = schur.schur_rhs

    def planted(n):
        side = rhs(n)
        if n == degree:
            lam = next(iter(side))
            side[lam] = side[lam] + ExactPolynomial((1,))
        return side

    monkeypatch.setattr(harness, "schur_rhs", planted)
    rows = _theorem_unit(9, 8)
    assert [row["n"] for row in rows if _task_failed(row)] == list(range(degree, 10))
    assert (rows[degree]["equality"], rows[degree]["recurrences"]) == ("fail", "pass")
    assert rows[degree]["oracle"] == (None if degree == 9 else "fail")
    if degree < 9:
        assert (rows[9]["equality"], rows[9]["recurrences"]) == ("pass", "fail")


def test_sweep_builds_each_schur_side_once(monkeypatch):
    calls = Counter()
    for name in ("schur_lhs", "schur_rhs"):
        build = getattr(schur, name)

        def counted(m, *table, name=name, build=build):
            calls[name, m] += 1
            return build(m, *table)

        for module in (schur, harness):
            monkeypatch.setattr(module, name, counted)
    rows = _theorem_unit(8, 8)
    assert [row["n"] for row in rows] == list(range(9))
    assert all(row["equality"] == row["oracle"] == "pass" for row in rows)
    # each degree's sides also serve the next degree's recurrences
    assert calls == {(name, m): 1 for name in ("schur_lhs", "schur_rhs") for m in range(9)}

    # a sweep schedules the whole Schur pass as one unit, beside one unit
    # per identity size
    scheduled = []
    completed = harness._completed

    def recorded(units, workers):
        scheduled.extend(units)
        return completed(units, workers)

    monkeypatch.setattr(harness, "_completed", recorded)
    calls.clear()
    report = run_sweep(small_config(max_n_theorem_1_2=5, max_n_oracles=5))
    assert report.all_passed
    assert len(scheduled) == 4 + 1
    assert [row["n"] for row in report.theorem_rows] == list(range(6))
    assert calls == {(name, m): 1 for name in ("schur_lhs", "schur_rhs") for m in range(6)}


def test_sweep_starts_no_more_workers_than_units(monkeypatch):
    # a pool forks all its workers at the first submit, so the sweep caps
    # the count at its units; the pool is replaced by one in-process worker
    seen = []
    completed = harness._completed

    def recorded(units, workers):
        seen.append((len(units), workers))
        return completed(units, 1)

    monkeypatch.setattr(harness, "_completed", recorded)
    report = run_sweep(small_config(parallelism=10**6))
    assert report.all_passed
    assert seen == [(4 + 1, 4 + 1)]
    assert report.to_json()["timing"]["workers"] == 4 + 1


def test_fault_crosses_process_boundary():
    fault = Fault(kind="g-factor", partition=Partition((2, 1)), index=1, delta=1)
    report = run_sweep(small_config(fault=fault, parallelism=2))
    assert not report.all_passed


def test_schur_failures_carry_witnesses(monkeypatch):
    rhs = schur.schur_rhs
    for module in (schur, harness):
        monkeypatch.setattr(module, "schur_rhs", lambda n: _doubled(rhs(n)) if n == 3 else rhs(n))
    report = run_sweep(small_config(identities=(IdentityId.THM_1_1,), max_n_theorem_1_2=4))
    rows = {row["n"]: row for row in report.theorem_rows}
    assert [n for n, row in rows.items() if "fail" in row.values()] == [3, 4]
    equality = rows[3]["equality_witness"]
    # witnesses show the sides divided by n!, as the paper states them
    for key, side in (("rhs", _doubled(rhs(3))), ("lhs", schur.schur_lhs(3))):
        assert json.loads(equality[key]) == schur.serialize_side(schur.uncleared(side, 3))
    for n in (3, 4):
        # a degree-n recurrence reads the rhs at n and at n - 1
        witness = {k: json.loads(v) for k, v in rows[n]["recurrences_witness"].items()}
        assert witness["lhs"]["side"] == witness["rhs"]["side"] == "rhs"
        assert witness["lhs"]["value"] != witness["rhs"]["value"]
    assert "equality_witness" not in rows[4]


def test_clean_schur_pass_holds_only_integers(monkeypatch):
    # cleared by n!, every coefficient of both sides is an integer
    # polynomial, through degree 12
    built = []
    for name in ("schur_lhs", "schur_rhs"):
        build = getattr(schur, name)

        def recorded(m, *table, build=build):
            built.append(build(m, *table))
            return built[-1]

        monkeypatch.setattr(harness, name, recorded)
    rows = _theorem_unit(12, 9)
    assert not any(map(_task_failed, rows))
    assert len(built) == 2 * 13
    assert {type(c) for side in built for p in side.values() for c in p.coeffs} == {int}


def test_schur_pass_with_hook_product_not_dividing_n_factorial(monkeypatch):
    # H(4) = 24 made 120: n!/H = 1/5 is kept as an exact Fraction, and the
    # pass reports failures at degree 4, and at 5 through the recurrences,
    # without raising
    hook_product = schur.hook_product
    monkeypatch.setattr(schur, "hook_product",
                        lambda lam: 5 * hook_product(lam) if lam == (4,) else hook_product(lam))
    rhs = schur.schur_rhs(4)
    assert {type(c) for c in rhs[Partition((4,))].coeffs} == {Fraction}
    assert {type(c) for c in rhs[Partition((3, 1))].coeffs} == {int}
    rows = _theorem_unit(6, 6)
    assert [row["n"] for row in rows if _task_failed(row)] == [4, 5]
    assert rows[4]["equality"] == rows[4]["recurrences"] == rows[4]["oracle"] == "fail"
    assert rows[5]["equality"] == rows[5]["oracle"] == "pass"
    assert rows[5]["recurrences"] == "fail"
    # the witness shows the wrong coefficient divided by 4!: g(x+4)/120
    shown = {t["partition"]: t["coefficient"] for t in json.loads(rows[4]["equality_witness"]["rhs"])}
    assert shown["4"][0] == [4, "1/120"]


# --- rendering --------------------------------------------------------------------

def test_json_render_leaves_no_garbage():
    # json.dumps with an indent leaves reference cycles behind on every
    # call; the renderer writes the same bytes without them
    report = run_sweep(small_config(capture_witnesses=True,
                                    fault=Fault(kind="hook", partition=Partition((2, 1)),
                                                row=1, col=1)))
    gc.collect()
    text = render_report(report)
    assert gc.collect() == 0
    assert text == json.dumps(report.to_json(), indent=2)


def test_csv_format():
    report = run_sweep(small_config(identities=(IdentityId.THM_1_1,), output_format="csv"))
    lines = render_report(report).strip().splitlines()
    assert lines[0] == "identity,n,checked,passed,failed"
    assert lines[1] == "THM_1_1,1,1,1,0"
    assert lines[-1].startswith("THM_1_2,2,")


def test_text_format():
    report = run_sweep(small_config(output_format="text"))
    text = render_report(report)
    assert "totals: checked" in text
    assert "THM_1_1" in text
