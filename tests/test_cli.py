"""The command-line surface: formats, exit codes, determinism."""

import hashlib

import pytest

from tits27 import cli, exactlinalg as la, generators


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cubic_emits_45_sorted_lines(capsys):
    code, out = run(capsys, "cubic")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 45
    assert lines[0] == "+ -3 -2 -1"
    payload = [tuple(int(x) for x in ln.split()[1:]) for ln in lines]
    assert payload == sorted(payload)
    signs = [ln.split()[0] for ln in lines]
    assert set(signs) == {"+", "-"}


@pytest.mark.parametrize("argv, size, digest", [
    (("cubic",), 450,
     "a9a9e87b27c120ab7dd404ea6efc5d0779b411e58ab5efe5a10c7ae99043f1aa"),
    (("cubic", "--check"), 622,
     "44ffe9816c232a7f15885fbbd8599b8e01d52ce197bef1b91192e8f6e9f82bdb"),
])
def test_cubic_golden_bytes(capsys, argv, size, digest):
    # recorded from the CycNum expansion of C(m x), before the int64 kernel
    code, out = run(capsys, *argv)
    assert code == 0
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cubic_check(capsys):
    code, out = run(capsys, "cubic", "--check")
    assert code == 0
    assert "invariant under eprime: PASS" in out


def test_gens_round_trip(tmp_path, capsys):
    code, out = run(capsys, "gens", "--out", str(tmp_path))
    assert code == 0
    g = generators.build_all()
    for name, m in g.as_dict().items():
        assert la.load_matrix(tmp_path / f"{name}.mat") == m


def test_gens_gf41_round_trip(tmp_path, capsys):
    code, _ = run(capsys, "gens", "--gf41", "--out", str(tmp_path))
    assert code == 0
    for name, m in zip(generators.NAMES, generators.build_all_gf41()):
        assert la.load_matrix(tmp_path / f"{name}.mat") == m


def test_gens_stdout_deterministic(capsys):
    _, out1 = run(capsys, "gens", "--gf41")
    _, out2 = run(capsys, "gens", "--gf41")
    assert out1 == out2
    assert out1.startswith("# f1\ngf41 27 27\n")


def test_orbit_subset(capsys):
    code, out = run(capsys, "orbit", "--seed", "fixed", "--gens", "f1,f2")
    assert code == 0
    assert out.strip() == "orbit size: 1"


def test_orbit_perms_of_singleton(capsys):
    code, out = run(capsys, "orbit", "--seed", "fixed", "--gens", "f1", "--perms")
    assert code == 0
    assert "f1 0" in out


@pytest.mark.parametrize("seed, size, digest", [
    ("fixed", 52_085,
     "363014a4814dd32b27e9f858a2e3093d566ec55692abe8d99bcd1d734e7b1ece"),
    ("proj1755", 38_360,
     "dbb152875693e6fa79dae3296256abe7989242a5363719c5ab3827b37dc4b041"),
])
def test_orbit_perms_golden_bytes(capsys, seed, size, digest):
    # recorded from the CycNum breadth-first search: point numbering and
    # permutations must not depend on how the images are computed
    code, out = run(capsys, "orbit", "--seed", seed, "--perms")
    assert code == 0
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orbit_unknown_gen(capsys):
    code, _ = run(capsys, "orbit", "--seed", "fixed", "--gens", "bogus")
    assert code == 2


def test_eval_round_trip(tmp_path, capsys):
    g = generators.build_all()
    la.save_matrix(g.f1, tmp_path / "f1.mat")
    la.save_matrix(g.ac, tmp_path / "ac.mat")
    code, out = run(capsys, "eval", "--word", "f1^ac",
                    "--bind", f"f1={tmp_path / 'f1.mat'}",
                    "--bind", f"ac={tmp_path / 'ac.mat'}")
    assert code == 0
    assert la.parse_matrix(out) == g.f2


def test_eval_bad_word(capsys):
    code, _ = run(capsys, "eval", "--word", "a^(b")
    assert code == 2


def test_eval_deeply_nested_word(capsys):
    code = cli.run(["eval", "--word", "(" * 3000 + "a" + ")" * 3000])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: word nested deeper than")
    assert "Traceback" not in err


def test_eval_bad_binding(capsys):
    code, _ = run(capsys, "eval", "--word", "a", "--bind", "nonsense")
    assert code == 2


def test_reduce41(tmp_path, capsys):
    g = generators.build_all()
    la.save_matrix(g.eprime, tmp_path / "ep.mat")
    code, out = run(capsys, "reduce41", "--in", str(tmp_path / "ep.mat"))
    assert code == 0
    reduced = la.parse_matrix(out)
    assert reduced == la.reduce_matrix_mod41(g.eprime)


def test_reduce41_missing_file(capsys):
    code, _ = run(capsys, "reduce41", "--in", "/nonexistent/m.mat")
    assert code == 2


def run_err(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().err


ZERO_DENOMINATOR = "cyc 1 1\n1/0 0 0 0 0 0 0 0\n"


def test_reduce41_zero_denominator(tmp_path, capsys):
    (tmp_path / "m.mat").write_text(ZERO_DENOMINATOR)
    code, err = run_err(capsys, "reduce41", "--in", str(tmp_path / "m.mat"))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_eval_bind_zero_denominator(tmp_path, capsys):
    (tmp_path / "m.mat").write_text(ZERO_DENOMINATOR)
    code, err = run_err(capsys, "eval", "--word", "a", "--bind", f"a={tmp_path / 'm.mat'}")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_reduce41_denominator_divisible_by_41(tmp_path, capsys):
    (tmp_path / "m.mat").write_text("cyc 1 1\n1/82 0 0 0 0 0 0 0\n")
    code, err = run_err(capsys, "reduce41", "--in", str(tmp_path / "m.mat"))
    assert code == 2
    assert "divisible by 41" in err and "Traceback" not in err


@pytest.mark.parametrize("n, ring", [(27, la.RING_CYC), (3, la.RING_GF41)])
def test_basis_in_rejects_other_matrices(tmp_path, capsys, n, ring):
    for name in ("a", "b"):
        la.save_matrix(la.ExactMatrix.identity(n, ring), tmp_path / f"{name}.mat")
    code, err = run_err(capsys, "basis", "--in", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and "gf41" in err


def test_basis_in_failed_check_exits_1(tmp_path, capsys):
    # well-formed GF(41) input that is not a pair of Tits generators is a
    # failed check, not a usage error
    for name in ("a", "b"):
        la.save_matrix(la.ExactMatrix.identity(27, la.RING_GF41), tmp_path / f"{name}.mat")
    code, err = run_err(capsys, "basis", "--in", str(tmp_path))
    assert code == 1
    assert err.startswith("check failed: ") and "dimension 0" in err


def test_basis_selftest_one_seed_block(capsys):
    code, out = run(capsys, "basis", "--selftest", "--seed", "21")
    assert code == 0
    assert out.count("scramble seed") == 5
    assert "FAIL" not in out


def test_basis_requires_mode(capsys):
    code, _ = run(capsys, "basis")
    assert code == 2


def test_basis_missing_input_dir(tmp_path, capsys):
    code, _ = run(capsys, "basis", "--in", str(tmp_path))
    assert code == 2


def test_verify_fast(capsys):
    code, out = run(capsys, "verify", "--fast")
    assert code == 0
    assert "FAIL" not in out
    assert "eprime inverts ac" in out


def test_usage_errors(capsys):
    assert cli.run(["nonsense"]) == 2
    assert cli.run([]) == 2
