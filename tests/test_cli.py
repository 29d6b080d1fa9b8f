"""Tests for the command-line interface and its exit-code contract."""

import json
import os
import pathlib
import resource
import subprocess
import sys
import warnings
from collections import Counter
from itertools import groupby

import numpy as np
import pytest

import nlops
from nlops import ProductState, basis_vector, dump_state_set, product_basis, theorem2_set
from nlops.cli import _subspace_gap, main
from nlops import certifier, cli
from nlops.tensor_core import StateSet


def test_generate_writes_expected_count(tmp_path, capsys):
    out = tmp_path / "t1.json"
    assert main(["generate", "--theorem", "1", "--n", "3", "--d", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "6 states" in stdout
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 6


def test_generate_heterogeneous_by_dims(tmp_path):
    out = tmp_path / "t4.json"
    assert main(["generate", "--theorem", "4", "--dims", "2,3,4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 10  # (2*2-3) + (2*3-3) + (2*4-3) + 1


def test_generate_rejects_two_parties(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = main(["generate", "--theorem", "1", "--n", "2", "--d", "3", "--out", str(out)])
    assert code == 2
    assert "need-three-parties" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theorem, n", [("1", "0"), ("2", "0"), ("1", "-1"), ("2", "-3")])
def test_generate_rejects_zero_or_fewer_parties(tmp_path, capsys, theorem, n):
    out = tmp_path / "bad.json"
    code = main(["generate", "--theorem", theorem, "--n", n, "--d", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: need-three-parties: the wrap-around families are mutually "
        "non-orthogonal on two parties\n")
    assert not out.exists()


@pytest.mark.parametrize("dims_args, line", [
    (["--n", "3", "--d", "3", "--dims", "3,3,3"], "give either --dims or --n/--d, not both"),
    (["--d", "3", "--dims", "3,3,3"], "give either --dims or --n/--d, not both"),
    ([], "need --dims, or both --n and --d"),
    (["--n", "3"], "need --dims, or both --n and --d"),
])
def test_generate_needs_one_way_to_give_dims(tmp_path, capsys, dims_args, line):
    out = tmp_path / "bad.json"
    assert main(["generate", "--theorem", "1", *dims_args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")
    assert not out.exists()


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("exc", [OSError("disk gone"), ValueError("bad-thing: odd input")],
                         ids=["OSError", "ValueError"])
@pytest.mark.parametrize("command, target", [
    ("generate", "_generate_set"), ("certify", "certify_nonlocal"),
    ("selftest", "_selftest_checks"),
])
def test_every_command_reaches_the_one_error_exit(tmp_path, capsys, monkeypatch,
                                                  command, target, exc):
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 2), state_file)
    argv = {"generate": ["generate", "--theorem", "1", "--n", "3", "--d", "2",
                         "--out", str(tmp_path / "new.json")],
            "certify": ["certify", str(state_file)],
            "selftest": ["selftest"]}[command]
    monkeypatch.setattr(cli, target, _raise(exc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {exc}\n")


def test_certify_allocation_numpy_refuses_is_one_too_large_line(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array the host will not give.
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 2), state_file)
    monkeypatch.setattr(cli, "certify_nonlocal", _raise(MemoryError("Unable to allocate 7.88 GiB")))
    assert main(["certify", str(state_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: too-large: Unable to allocate 7.88 GiB\n")


def test_generate_rejects_unequal_dims_for_theorem1(tmp_path, capsys):
    code = main(["generate", "--theorem", "1", "--dims", "2,3,2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "equal local dimensions" in capsys.readouterr().err


def test_generate_rejects_bad_dims_string(tmp_path, capsys):
    code = main(["generate", "--theorem", "3", "--dims", "2,x,2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("size", [["--theorem", "1", "--n", "3", "--d", "3000"],
                                  ["--theorem", "3", "--dims", "2,2,100000"],
                                  ["--theorem", "1", "--n", "3", "--d", "65"],
                                  ["--theorem", "4", "--dims", "2,3,100"],
                                  ["--theorem", "1", "--n", str(2**63), "--d", "2"],
                                  ["--theorem", "1", "--n", str(10**15), "--d", "2"]])
def test_generate_refuses_a_set_too_large_to_certify_before_building_it(tmp_path, size):
    # 17,994 and 200,002 states: building either would take several GB, past the cap.
    # The next two are small, but a local dimension above 64 has no Hermitian basis.
    # The last two party counts are refused before their (d,) * n dims are built.
    out = tmp_path / "big.json"
    src = pathlib.Path(nlops.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "nlops", "generate", *size, "--out", str(out)],
                          capture_output=True, text=True, preexec_fn=_cap_address_space,
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: too-large: ")
    assert not out.exists()


def _assert_one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(start)


def test_generate_unwritable_path(capsys):
    code = main(["generate", "--theorem", "1", "--n", "3", "--d", "2",
                 "--out", "/nonexistent-dir/out.json"])
    assert code == 2
    _assert_one_error_line(capsys, "error: cannot write /nonexistent-dir/out.json: ")


def test_certify_unwritable_certificate_path(tmp_path, capsys):
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 2), state_file)
    out = tmp_path / "missing" / "cert.json"
    assert main(["certify", str(state_file), "--out", str(out)]) == 2
    _assert_one_error_line(capsys, f"error: cannot write {out}: ")


def test_a_flag_of_one_call_does_not_reach_the_next(tmp_path, capsys):
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 2), state_file)
    main(["certify", str(state_file), "--tol-orth", "0.5"])
    assert "tol 0.5)" in capsys.readouterr().out
    main(["certify", str(state_file)])
    assert "tol 1e-10)" in capsys.readouterr().out


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 2), state_file)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["certify", str(state_file)],
                 ["generate", "--theorem", "1", "--n", "3", "--d", "2", "--out", str(state_file)],
                 ["certify", str(state_file), "--tol-rank", "1e-8"]):
        main(argv)
    assert built == [1]


def test_generate_then_certify_pipeline(tmp_path, capsys):
    state_file = tmp_path / "t2.json"
    cert_file = tmp_path / "cert.json"
    assert main(["generate", "--theorem", "2", "--n", "3", "--d", "2",
                 "--out", str(state_file)]) == 0
    code = main(["certify", str(state_file), "--out", str(cert_file)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "CERTIFIED_NONLOCAL" in stdout
    doc = json.loads(cert_file.read_text())
    assert doc["verdict"] == "CERTIFIED_NONLOCAL"
    assert [p["solution_dim"] for p in doc["parties"]] == [1, 1, 1]


def test_certify_product_basis_exits_1(tmp_path, capsys):
    state_file = tmp_path / "pb.json"
    dump_state_set(product_basis((2, 2)), state_file)
    cert_file = tmp_path / "cert.json"
    code = main(["certify", str(state_file), "--out", str(cert_file)])
    assert code == 1
    assert "NOT_CERTIFIED" in capsys.readouterr().out
    doc = json.loads(cert_file.read_text())
    assert [p["solution_dim"] for p in doc["parties"]] == [2, 2]
    assert all("witness" in p for p in doc["parties"])


def test_certify_duplicate_state_reports_not_orthogonal(tmp_path, capsys):
    base = theorem2_set(3, 2)
    dup = StateSet(base.dims, base.states + (base.states[0],), label="dup")
    state_file = tmp_path / "dup.json"
    dump_state_set(dup, state_file)
    assert main(["certify", str(state_file)]) == 1
    assert "NOT_ORTHOGONAL" in capsys.readouterr().out


def test_certify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert main(["certify", str(bad)]) == 2
    assert "malformed-file" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000])
def test_certify_huge_integer_amplitude_exits_2_with_one_line_error(tmp_path, capsys, digits):
    bad = tmp_path / "huge.json"
    bad.write_text(
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": '
        '[[[[1' + "0" * digits + ', 0], [0, 0]], [[1, 0], [0, 0]]]]}'
    )
    assert main(["certify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: malformed-file")


@pytest.mark.parametrize("layout", ["compact", "written"])
def test_certify_oversized_dims_entry_exits_2_with_one_line_error(tmp_path, capsys, layout):
    doc = {"format_version": "nlops-1", "dims": [2, 10**23], "label": "", "states": []}
    text = json.dumps(doc)
    if layout == "written":  # the layout dump_state_set writes, read line by line
        text = "\n".join(["{", *(f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in
                                  list(doc.items())[:3]), '  "states": [', "  ]", "}", ""])
    bad = tmp_path / "oversized.json"
    bad.write_text(text)
    assert main(["certify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: malformed-file")


def test_certify_too_large_local_dimension_exits_2_with_one_line_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    dump_state_set(StateSet((65, 2, 2), tuple(
        ProductState((basis_vector(65, j), basis_vector(2, 0), basis_vector(2, 0)))
        for j in range(2))), big)
    assert main(["certify", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: too-large: local dimension 65")


def test_certify_refuses_a_generated_set_too_large_to_assemble(tmp_path, capsys):
    # generate bounds the pair table, not the constraint rows: theorem1_set(3, 64)
    # has 19,845 active pairs per party, times 64^2 coordinates 81.3M entries.
    state_file = tmp_path / "t1.json"
    assert main(["generate", "--theorem", "1", "--n", "3", "--d", "64",
                 "--out", str(state_file)]) == 0
    capsys.readouterr()
    assert main(["certify", str(state_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: too-large: 19845 active pairs of local "
                                            "dimension 64 exceed 67108864 constraint entries\n")


def test_certify_refuses_a_too_large_local_dimension_before_the_pair_table(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pair table must not be built for a refused set")

    big = tmp_path / "big.json"
    dump_state_set(StateSet((2, 65), tuple(
        ProductState((basis_vector(2, 0), basis_vector(65, j))) for j in range(3))), big)
    monkeypatch.setattr(certifier, "_pair_overlaps", refuse)
    assert main(["certify", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: too-large: local dimension 65 exceeds 64\n"


@pytest.mark.parametrize("amplitude", ["1e200", "1e-200"])
def test_certify_refuses_a_norm_out_of_float_range_with_one_line_error(tmp_path, capsys,
                                                                       amplitude):
    # States 0 and 2 are equal; a norm that overflows or underflows once
    # hid that behind a passing orthogonality check or a failed SVD.
    big = f"[[{amplitude}, 0], [0, 0]]"
    states = [f"    [{big}, [[1, 0], [0, 0]], [[1, 0], [0, 0]]],",
              f"    [{big}, [[0, 0], [1, 0]], [[1, 0], [0, 0]]],",
              f"    [{big}, [[1, 0], [0, 0]], [[1, 0], [0, 0]]]"]
    bad = tmp_path / "range.json"
    bad.write_text('{\n  "format_version": "nlops-1",\n  "dims": [2, 2, 2],\n'
                   '  "label": "",\n  "states": [\n' + "\n".join(states) + "\n  ]\n}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", str(bad)]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: malformed-file: state 0: bad-local: ")


def test_certify_missing_file_exits_2(tmp_path):
    assert main(["certify", str(tmp_path / "missing.json")]) == 2


def test_certify_normalized_export_same_verdict(tmp_path):
    state_file = tmp_path / "t2n.json"
    assert main(["generate", "--theorem", "2", "--n", "3", "--d", "2",
                 "--normalize", "--out", str(state_file)]) == 0
    assert main(["certify", str(state_file)]) == 0


def test_cli_roundtrip_is_byte_identical(tmp_path):
    from nlops import dumps_state_set, load_state_set

    state_file = tmp_path / "t3.json"
    assert main(["generate", "--theorem", "3", "--dims", "2,3,2",
                 "--out", str(state_file)]) == 0
    text = state_file.read_text()
    assert dumps_state_set(load_state_set(state_file)) == text


@pytest.mark.parametrize("command", ["certify", "selftest"])
@pytest.mark.parametrize("flag, value", [
    ("--tol-rank", "0"), ("--tol-rank", "nan"), ("--tol-active", "-1"), ("--tol-orth", "inf"),
])
def test_bad_tolerance_exits_2_with_one_line_error(tmp_path, capsys, command, flag, value):
    state_file = tmp_path / "t2.json"
    dump_state_set(theorem2_set(3, 3), state_file)
    argv = [command, str(state_file)] if command == "certify" else [command]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: bad-tolerance: {flag[2:].replace('-', '_')}=")


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--theorem", "9", "--n", "3", "--d", "2", "--out", "x"])
    assert exc.value.code == 2


def test_selftest_full_run_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_selftest_subset_passes(capsys):
    assert main(["selftest", "--max-total-dim", "64"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_selftest_detects_misconfigured_rank_tolerance(capsys):
    code = main(["selftest", "--max-total-dim", "512", "--tol-rank", "0.1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def _selftest_lines(capsys, *argv):
    code = main(["selftest", *argv])
    *lines, summary = capsys.readouterr().out.splitlines()
    assert summary == f"selftest: {len(lines)}/{len(lines)} checks passed"
    assert code == 0
    return lines


SWEEP_KINDS = ("count", "orthogonality", "certify", "oracle-equivalence")


@pytest.mark.parametrize("argv, certified", [((), 60), (("--max-total-dim", "64"), 18)])
def test_selftest_checks_per_kind(capsys, argv, certified):
    lines = _selftest_lines(capsys, *argv)
    kinds = Counter(line.split()[1] for line in lines)
    assert kinds == {
        "roots-of-unity": 15, "vandermonde-roots-identity": 7,
        "leave-one-out-determinants": 7, "cramer-vs-dense-solver": 1,
        "count": 64, "orthogonality": 66, "certify": certified,
        "oracle-equivalence": certified, "negative-control": 2,
    }
    # each sweep set's checks are printed together, in a fixed order
    sweep = [line.split(maxsplit=2)[1:] for line in lines if line.split()[1] in SWEEP_KINDS]
    for (kind, label), (next_kind, next_label) in zip(sweep, sweep[1:]):
        if next_label == label:
            assert SWEEP_KINDS.index(kind) < SWEEP_KINDS.index(next_kind)
    groups = [label for label, _ in groupby(label for _, label in sweep)]
    assert len(groups) == len(set(groups)) == 66


def test_selftest_skips_the_oracle_above_its_bound(capsys):
    # Both n = 5, d = 6 sets (composite dimension 7776) are certified, but the
    # full-vector oracle stops at MAX_BRUTE_FORCE_DIM = 4096.
    lines = _selftest_lines(capsys, "--max-total-dim", "8000")
    assert len(lines) == 284
    for family in ("theorem1", "theorem2"):
        label = f"{family} n=5 d=6"
        assert f"[PASS] certify {label}" in lines
        assert not [line for line in lines if line.endswith(label) and "oracle" in line]


def test_selftest_reads_each_party_of_each_set_once(capsys, monkeypatch):
    def refuse(self, party):
        raise AssertionError("the fast path reads the table, not party_vectors")

    monkeypatch.setattr(StateSet, "party_vectors", refuse)
    certifier._pair_overlaps.cache_clear()
    lines = _selftest_lines(capsys, "--max-total-dim", "64")
    labels = {line.split(maxsplit=2)[2] for line in lines
              if line.split()[1] in ("orthogonality", "negative-control")}
    assert len(labels) == 68
    assert certifier._pair_overlaps.cache_info().misses == 68


def test_oracle_equivalence_checks_the_certified_solution_space(capsys, monkeypatch):
    # A fast path that drops two active pairs certifies too little; the oracle
    # must catch it in the certificate itself, not in a solve of its own.
    full = certifier.assemble_constraints
    monkeypatch.setattr(certifier, "assemble_constraints",
                        lambda *args, **kwargs: full(*args, **kwargs)[:-4])
    assert main(["selftest", "--max-total-dim", "64"]) == 1
    # A failing line reads "[FAIL] kind label  detail".
    failed = {tuple(line.split("  ")[0].split(maxsplit=2)[1:])
              for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")}
    uncertified = {label for kind, label in failed if kind == "certify"}
    assert uncertified
    assert all(("oracle-equivalence", label) in failed for label in uncertified)


def test_subspace_gap_depends_on_the_spans_only():
    rng = np.random.default_rng(5)
    a, _ = np.linalg.qr(rng.standard_normal((16, 3)))
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert _subspace_gap(a, a @ rotation) <= 1e-12
    assert abs(_subspace_gap(a[:, :2], a) - 1.0) <= 1e-12
    assert _subspace_gap(np.zeros((16, 0)), np.zeros((16, 0))) == 0.0


def test_no_command_imports_numpy_random(tmp_path):
    src = pathlib.Path(nlops.__file__).resolve().parents[1]
    out = tmp_path / "t4.json"
    code = ("import sys; from nlops.cli import main; "
            "main(['selftest', '--max-total-dim', '8']); "
            f"main(['generate', '--theorem', '4', '--dims', '2,3,4', '--out', {str(out)!r}]); "
            f"main(['certify', {str(out)!r}]); "
            "assert 'numpy.random' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert "166/166 checks passed" in done.stdout
    assert "verdict       : CERTIFIED_NONLOCAL" in done.stdout


def test_importing_the_cli_loads_no_scipy():
    src = pathlib.Path(nlops.__file__).resolve().parents[1]
    code = "import sys, nlops.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"
