import errno
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookshift.cli as cli
import hookshift.harness as harness
import hookshift.identities as identities
import hookshift.schur as schur
from hookshift import Fault, IdentityId, Partition
from hookshift.harness import SweepConfig, run_sweep


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gpoly_single_box(capsys):
    code, out, _ = run_cli(capsys, "gpoly", "1")
    assert code == 0
    assert out.strip() == "x"


def test_gpoly_compact_input(capsys):
    code, out, _ = run_cli(capsys, "gpoly", "21")
    assert code == 0
    assert out.strip() == "x^3-3x^2-x+3"


def test_hooks(capsys):
    code, out, _ = run_cli(capsys, "hooks", "2,2")
    assert code == 0
    assert out.splitlines() == ["3 2", "2 1", "H = 12"]


def test_corners(capsys):
    code, out, _ = run_cli(capsys, "corners", "55331")
    assert code == 0
    assert "T={2,4,5}" in out
    assert "B={1,3,5,6}" in out
    assert "5,5,3,3" in out


def test_syt(capsys):
    code, out, _ = run_cli(capsys, "syt", "4,3,2,1")
    assert code == 0
    assert out.strip() == "768"


def test_schur_sides_agree(capsys):
    code, lhs, _ = run_cli(capsys, "schur-lhs", "3")
    assert code == 0
    code, rhs, _ = run_cli(capsys, "schur-rhs", "3")
    assert code == 0
    assert json.loads(lhs) == json.loads(rhs)
    assert json.loads(lhs)[0]["partition"] == "3"


def test_check_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "COR_4_4", "5,5,3,3,1")
    assert code == 0
    assert "PASS COR_4_4" in out
    assert "17" in out


def test_check_per_corner(capsys):
    code, out, _ = run_cli(capsys, "check", "CORNER_RATIO_2_2", "55331")
    assert code == 0
    assert out.count("PASS") == 3
    assert "corner=4" in out


def test_check_bad_partition(capsys):
    code, _, err = run_cli(capsys, "check", "THM_1_1", "3,5")
    assert code == 2
    assert "weakly decreasing" in err


def test_check_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "check", "THM_9_9", "2,1")
    assert code == 2
    assert "unknown identity" in err


def test_bad_partition_exit_code(capsys):
    code, _, err = run_cli(capsys, "hooks", "x,y")
    assert code == 2
    assert err.startswith("error:")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_example_walkthrough(capsys):
    code, out, _ = run_cli(capsys, "example-55331")
    assert code == 0
    assert "T={2,4,5}" in out
    assert "B={1,3,5,6}" in out
    assert "17x^2-38x-75" in out


def test_computation_output_is_reproducible(capsys):
    for argv in (["gpoly", "55331"], ["hooks", "55331"], ["corners", "55331"],
                 ["syt", "55331"], ["schur-lhs", "4"], ["check", "THM_4_2", "55331"],
                 ["example-55331"]):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


# sha256 of stdout, taken from the code that still had the general
# polynomial product, scalar arithmetic on polynomials and linear()
PINNED_OUTPUTS = {
    ("example-55331",): "e53827e9a9d03147a99c580ba3d9946e5c7bb346292eced0bc1bdc143b6592cd",
    ("gpoly", "55331"): "342ba8084c6e373f583711a09ada91ca85233e3590598bc78c03ea52a33e5744",
    ("schur-rhs", "4"): "8d49fd66b07b61d4d68145d4790b39fa72658867a94b22c62552920f2af2bdef",
    ("schur-rhs", "6"): "bf034ad452573d02255c87a7afb4778c0aa97ce508f9dab272dccbe9d3358a9b",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS, ids=" ".join)
def test_output_bytes_are_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]


def test_sweep_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--max-n-schur", "2",
                           "--max-n-oracle", "2", "--jobs", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == ["config", "identities", "theorem_1_2", "totals", "timing"]
    assert doc["totals"]["failed"] == 0


def test_sweep_clamps_oracle_bound(capsys):
    # the oracle runs at Schur degrees, so --max-n-schur caps its bound
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--max-n-schur", "2",
                           "--jobs", "1")
    assert code == 0
    assert json.loads(out)["config"]["max_n_oracles"] == 2
    # and a small --max-n does not
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--jobs", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["max_n_oracles"] == 8
    assert [row["oracle"] for row in doc["theorem_1_2"]] == ["pass"] * 9 + [None]


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "1",
                           "--max-n-oracle", "1", "--jobs", "1", "--format", "csv",
                           "--identities", "THM_1_1,COR_4_4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,n,checked,passed,failed"
    assert any(line.startswith("COR_4_4,2,") for line in lines)


def test_sweep_identities_flag_rejects_unknown(capsys):
    code, _, err = run_cli(capsys, "sweep", "--identities", "NOPE", "--jobs", "1")
    assert code == 2
    assert "bad --identities" in err


@pytest.mark.parametrize("jobs", ["abc", "0", "-1", "1.5", ""])
def test_sweep_rejects_bad_jobs(jobs, capsys):
    code, out, err = run_cli(capsys, "sweep", "--max-n", "3", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: bad --jobs value {jobs!r}: expected 'auto' or a positive integer\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("option", ["--max-n", "--max-n-schur", "--max-n-oracle"])
def test_sweep_rejects_bad_bounds(option, value, capsys):
    code, out, err = run_cli(capsys, "sweep", "--jobs", "1", option, value)
    assert (code, out) == (2, "")
    assert err == f"error: bad {option} value {value}: expected a positive integer\n"


def test_sweep_rejects_empty_identity_selection(capsys):
    for selection in ("", ","):
        code, out, err = run_cli(capsys, "sweep", "--identities", selection, "--max-n", "3",
                                 "--jobs", "1")
        assert (code, out) == (2, "")
        assert "no identities selected" in err


def test_sweep_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "1",
                           "--max-n-oracle", "1", "--jobs", "1", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["totals"]["failed"] == 0
    # a second sweep replaces the report rather than appending to it
    path.write_text("stale " * 10_000)
    code, _, _ = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "1",
                         "--max-n-oracle", "1", "--jobs", "1", "--output", str(path))
    assert code == 0
    again = json.loads(path.read_text())
    assert again.pop("timing") and doc.pop("timing")
    assert again == doc


def test_sweep_output_unwritable(tmp_path, monkeypatch, capsys):
    def no_sweep(config):
        raise AssertionError("swept before opening the output")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--jobs", "1",
                             "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_sweep_output_full_device(capsys):
    # /dev/full opens, but takes no write
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "1",
                             "--max-n-oracle", "1", "--jobs", "1", "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --output /dev/full: ")
    assert err.count("\n") == 1


def test_sweep_output_write_failure(tmp_path, monkeypatch, capsys):
    # an output that opens but cannot be written fails as one that cannot
    # be opened does
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda path, mode: Full(), raising=False)
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "1",
                             "--max-n-oracle", "1", "--jobs", "1", "--output", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --output {path}: No space left on device\n"


def _child_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _small_files():
    # a file of the child's grows to 64 bytes at most; a write past that
    # fails with EFBIG instead of killing the child
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
def test_sweep_output_failing_partway_leaves_no_new_file(tmp_path):
    # the write fails after the first 64 bytes of the report reached the
    # file the sweep created, which must not stay behind
    path = tmp_path / "report.json"
    child = subprocess.run(
        [sys.executable, "-m", "hookshift.cli", "sweep", "--max-n", "3", "--max-n-schur", "1",
         "--max-n-oracle", "1", "--jobs", "1", "--output", str(path)],
        capture_output=True, env=_child_env(), preexec_fn=_small_files, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: cannot write --output {path}: File too large\n"
    assert not path.exists()


def test_sweep_oserror_with_output_is_a_crash(tmp_path, monkeypatch, capsys):
    # an OSError raised inside the sweep aborts it; it is not a write failure
    def crash(config):
        raise OSError("planted")

    monkeypatch.setattr(cli, "run_sweep", crash)
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--jobs", "1",
                             "--output", str(tmp_path / "report.json"))
    assert (code, out) == (3, "")
    assert err == "error: sweep aborted: OSError: planted\n"


@pytest.mark.parametrize("before", [None, b"kept\n"], ids=["new", "existing"])
def test_aborted_sweep_leaves_the_output_as_it_was(before, tmp_path, monkeypatch, capsys):
    # the output is opened before the sweep; an abort removes the file
    # only if the sweep created it
    def crash(config):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "run_sweep", crash)
    path = tmp_path / "report.json"
    if before is not None:
        path.write_bytes(before)
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--jobs", "1",
                             "--output", str(path))
    assert (code, out, err) == (3, "", "error: sweep aborted: RuntimeError: planted\n")
    assert (path.read_bytes() if path.exists() else None) == before


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["example-55331"],
     ["sweep", "--max-n", "4", "--max-n-schur", "2", "--max-n-oracle", "2", "--jobs", "1",
      "--witnesses"]],
    ids=["example", "sweep"],
)
def test_closed_stdout_exits_2(argv, unbuffered):
    # stdout's reader is gone before the command starts, as under `| head`
    env = dict(_child_env(), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "hookshift.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert child.returncode == 2
    assert child.stderr.startswith("error: cannot write to stdout: ")
    assert child.stderr.count("\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_crash_is_reported(jobs, monkeypatch, capsys):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched checker only when forked")

    def crash(ctx):
        raise ZeroDivisionError("planted")

    _, report = identities._CHECKERS[IdentityId.COR_4_4]
    monkeypatch.setitem(identities._CHECKERS, IdentityId.COR_4_4, (crash, report))
    code, out, err = run_cli(capsys, "sweep", "--max-n", "3", "--max-n-schur", "1",
                             "--max-n-oracle", "1", "--jobs", jobs)
    assert code == 3
    assert out == ""
    assert err == "error: sweep aborted: ZeroDivisionError: planted\n"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda parts: parts[:-1], "enumerated 4 partitions of 4, not p(4) = 5"),
        (lambda parts: parts[:2] + parts[1:], "partitions of 4 not in strictly decreasing order"),
    ],
    ids=["drops-one", "repeats-one"],
)
def test_sweep_proves_its_coverage(tamper, message, monkeypatch, capsys):
    # each identity unit counts its partitions against p(n) and checks that
    # they strictly decrease, so a lost or repeated partition aborts the sweep
    enumerate_partitions = harness.enumerate_partitions

    def tampered(n):
        parts = list(enumerate_partitions(n))
        return iter(tamper(parts) if n == 4 else parts)

    monkeypatch.setattr(harness, "enumerate_partitions", tampered)
    code, out, err = run_cli(capsys, "sweep", "--max-n", "5", "--max-n-schur", "1",
                             "--max-n-oracle", "1", "--jobs", "1")
    assert (code, out) == (3, "")
    assert err == f"error: sweep aborted: RuntimeError: {message}\n"


def test_schur_pass_proves_its_coverage(monkeypatch, capsys):
    # a correct right side has one term per partition of its degree, so a
    # lost partition aborts the Schur pass
    enumerate_partitions = schur.enumerate_partitions

    def dropping(n):
        parts = list(enumerate_partitions(n))
        return iter(parts[:-1] if n == 3 else parts)

    monkeypatch.setattr(schur, "enumerate_partitions", dropping)
    code, out, err = run_cli(capsys, "sweep", "--max-n", "2", "--max-n-schur", "4",
                             "--max-n-oracle", "4", "--jobs", "1")
    assert (code, out) == (3, "")
    assert err == "error: sweep aborted: RuntimeError: schur_rhs(3) has 2 terms, not p(3) = 3\n"


def test_sweep_exit_code_on_failure(monkeypatch, capsys):
    fault = Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=1)
    failing = run_sweep(SweepConfig(max_n_identities=3, max_n_theorem_1_2=1,
                                    max_n_oracles=1, parallelism=1, fault=fault))
    monkeypatch.setattr(cli, "run_sweep", lambda config: failing)
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--jobs", "1")
    assert code == 1
    assert json.loads(out)["totals"]["failed"] > 0


def test_check_exit_code_on_failure(monkeypatch, capsys):
    fault = Fault(kind="g-factor", partition=Partition((2, 1)), index=1, delta=1)
    from hookshift import check_identity

    failing = check_identity(IdentityId.EQ_4_6, Partition((2, 1)), fault)
    assert any(not o.passed for o in failing)
    monkeypatch.setattr(cli, "check_identity", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "check", "EQ_4_6", "2,1")
    assert code == 1
    assert "FAIL" in out
