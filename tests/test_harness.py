import json
from collections import Counter

import pytest

from hookshift import Fault, IdentityId, Partition, enumerate_partitions, parse_partition
from hookshift.harness import SweepConfig, render_report, run_sweep


def small_config(**kw):
    base = dict(max_n_identities=4, max_n_theorem_1_2=2, max_n_oracles=2, parallelism=1)
    base.update(kw)
    return SweepConfig(**base)


# --- configuration ------------------------------------------------------------

def test_config_defaults():
    cfg = SweepConfig()
    assert cfg.max_n_identities == 25
    assert cfg.max_n_theorem_1_2 == 9
    assert cfg.max_n_oracles == 8
    assert cfg.identities == tuple(IdentityId)


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


def test_report_deterministic_across_runs():
    cfg = small_config()
    a = json.loads(render_report(run_sweep(cfg)))
    b = json.loads(render_report(run_sweep(cfg)))
    del a["timing"], b["timing"]
    assert json.dumps(a) == json.dumps(b)


def test_report_independent_of_worker_count():
    a = json.loads(render_report(run_sweep(small_config(parallelism=1))))
    b = json.loads(render_report(run_sweep(small_config(parallelism=2))))
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


def test_fault_crosses_process_boundary():
    fault = Fault(kind="g-factor", partition=Partition((2, 1)), index=1, delta=1)
    report = run_sweep(small_config(fault=fault, parallelism=2))
    assert not report.all_passed


def test_schur_failures_carry_witnesses(monkeypatch):
    import hookshift.schur as schur

    rhs = schur.schur_rhs
    monkeypatch.setattr(schur, "schur_rhs", lambda n: rhs(n).scale(2) if n == 3 else rhs(n))
    report = run_sweep(small_config(identities=(IdentityId.THM_1_1,), max_n_theorem_1_2=4))
    rows = {row["n"]: row for row in report.theorem_rows}
    assert [n for n, row in rows.items() if "fail" in row.values()] == [3, 4]
    equality = rows[3]["equality_witness"]
    assert json.loads(equality["rhs"]) == rhs(3).scale(2).serialize()
    assert json.loads(equality["lhs"]) == schur.schur_lhs(3).serialize()
    for n in (3, 4):
        # a degree-n recurrence reads the rhs at n and at n - 1
        witness = {k: json.loads(v) for k, v in rows[n]["recurrences_witness"].items()}
        assert witness["lhs"]["side"] == witness["rhs"]["side"] == "rhs"
        assert witness["lhs"]["value"] != witness["rhs"]["value"]
    assert "equality_witness" not in rows[4]


# --- rendering --------------------------------------------------------------------

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
