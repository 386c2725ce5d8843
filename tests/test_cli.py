"""The command-line surface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tits27 import basisfinder, cli, cyclo, exactlinalg as la, generators, gf41, orbits
from tits27 import wordlang, zkernel


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


@pytest.mark.parametrize("argv, size, digest", [
    (("gens",), 60_634,
     "7093e0f7981e02cf5657dba66faa854a2921539c4236d3886c2c8077ddad11d4"),
    (("gens", "--gf41"), 7_704,
     "50dd9287664e410822d998acc7f8643c5db7a985a1e66d97a123b55da5062afe"),
    (("eval", "--word", "eprime ac eprime", "--bind", "eprime={}/eprime.mat",
      "--bind", "ac={}/ac.mat"), 11_674,
     "b112167d615ed204a95053cc5b0af5d5e2b6f21e75be7603ad12f39d299e727a"),
    (("eval", "--word", "f1^ac", "--bind", "f1={}/f1.mat", "--bind", "ac={}/ac.mat"), 11_694,
     "15e753578ac4a0bafcfb9d96b98d6f4dea0b1cd305581f87b063250e90051572"),
    (("reduce41", "--in", "{}/eprime.mat"), 1_742,
     "5b607eea6ffefcd9244118eecbd5e7a98f08d67071bc9d75332f3074c97aacbf"),
])
def test_gens_golden_bytes(tmp_path, capsys, argv, size, digest):
    # eval and reduce41 read the files that `gens --out` writes into {}
    run(capsys, "gens", "--out", str(tmp_path))
    code, out = run(capsys, *(arg.format(tmp_path) for arg in argv))
    assert code == 0
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("argv, printed", [
    (("order",), "17971200\n"),
    (("order", "--gens", "f1,f2,ac,eprime"), "7800\n"),
    (("order", "--gens", "d"), "2\n"),
    (("order", "--gens", "ac"), "12\n"),
    (("order", "--gens", "f1,f1"), "5\n"),  # the duplicate sifts to the identity
    (("order", "--gens", "f1,f2"), "25\n"),
    (("order", "--gens", "f1,f2,d"), "50\n"),
])
def test_order_prints_certified_order(capsys, argv, printed):
    assert run(capsys, *argv) == (0, printed)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_orbit_cap_below_one_is_exceeded(capsys, cap):
    # every orbit has at least its seed, so no cap below 1 can hold it
    code = cli.run(["orbit", "--seed", "fixed", "--gens", "f1", "--cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: orbit exceeds cap {cap}\n"


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


def test_cli_import_leaves_the_word_parser_to_its_commands(tmp_path):
    # only eval and basis --in parse words, so importing the CLI, or running
    # verify, does not import wordlang; eval imports it when it runs
    ac = generators.build_all().ac
    la.save_matrix(ac, tmp_path / "ac.mat")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    bind = f"ac={tmp_path / 'ac.mat'}"
    code = f"""
import contextlib, io, sys
from tits27 import cli
assert 'tits27.wordlang' not in sys.modules, 'imported with the CLI'
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(['verify', '--fast']) == 0
assert 'tits27.wordlang' not in sys.modules, 'imported by verify'
assert cli.run(['eval', '--word', 'ac^2', '--bind', {bind!r}]) == 0
"""
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert la.parse_matrix(done.stdout) == la.mat_mul(ac, ac)


def test_eval_bad_word(capsys):
    code, _ = run(capsys, "eval", "--word", "a^(b")
    assert code == 2


def test_eval_deeply_nested_word(capsys):
    code = cli.run(["eval", "--word", "(" * 3000 + "a" + ")" * 3000])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: word nested deeper than")
    assert "Traceback" not in err


def test_eval_unbound_name(capsys):
    code, err = run_err(capsys, "eval", "--word", "a")
    assert code == 2
    assert err == "error: no matrix is bound to the generator 'a'\n"


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


def test_reduce41_beyond_int64(tmp_path, capsys):
    # entries whose numerators and common denominator do not fit in int64
    lines = [f"{2 ** 80 + 1}/3 -{2 ** 70} 0 1/7 0 0 0 5", f"-{2 ** 70} 0 0 0 0 0 0 {2 ** 65}/11",
             "0 0 0 0 0 0 0 0", f"3 {2 ** 90} -1 0 0 0 0 1/2"]
    (tmp_path / "m.mat").write_text("cyc 2 2\n" + "\n".join(lines) + "\n")
    m = la.load_matrix(tmp_path / "m.mat")
    with pytest.raises(zkernel.KernelOverflowError):
        m.coeffs
    code, out = run(capsys, "reduce41", "--in", str(tmp_path / "m.mat"))
    assert code == 0
    expected = [gf41.reduce_cyc(cyclo.CycNum.from_text(ln)).value for ln in lines]
    assert out == "gf41 2 2\n{} {}\n{} {}\n".format(*expected)


def test_basis_in_writes_the_recovered_generators(tmp_path, monkeypatch, capsys):
    # no standard generators a, b are at hand, so the standard words evaluate,
    # in turn, to scrambled generators instead; a is the identity, c is ac
    ref = np.stack([la.residues(m) for m in generators.build_all_gf41()])
    p = basisfinder.random_invertible(random.Random(3))
    scrambled = dict(zip(generators.NAMES, gf41.matmul(gf41.matmul(gf41.inverse(p), ref), p)))
    scrambled.update(c=scrambled["ac"], e=p)  # e only feeds the word for eprime
    words = iter(wordlang.STANDARD_WORDS)
    monkeypatch.setattr(wordlang, "eval_word",
                        lambda expr, env: la.from_residues(scrambled[next(words)[0]]))
    for name in ("a", "b"):
        la.save_matrix(la.ExactMatrix.identity(27, la.RING_GF41), tmp_path / f"{name}.mat")
    code, out = run(capsys, "basis", "--in", str(tmp_path), "--out", str(tmp_path / "out"))
    balanced, common = basisfinder.recover(np.stack([scrambled[n] for n in generators.NAMES]))
    assert code == 0
    assert out == (f"common interaction multiple: {common}\n"
                   f"wrote 5 rebased matrices to {tmp_path / 'out'}\n")
    for name, m in zip(generators.NAMES, balanced):
        assert np.array_equal(la.residues(la.load_matrix(tmp_path / "out" / f"{name}.mat")), m)


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
    assert len(out.encode()) == 940
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6af96bb185cb6d4bb83d7085da67d87e76a68f9a77354f1cd349d1174ad626da")


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
    assert len(out.encode()) == 1980
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5eaa89571b96c246f45919f91dc1e138d7d36de5e96033e263581724ea73248a")


def test_verify_seed_1_golden_bytes(capsys):
    # recorded before the GF(41) pipeline moved to residue arrays
    code, out = run(capsys, "verify", "--seed", "1")
    assert code == 0
    assert len(out.encode()) == 2904
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a4d5a612b1a64f57fccb8e567130c6cdea9c2120a8702a07139230c1d77a7d4")


def test_check_failures_share_one_base():
    for error in (orbits.OrbitNotClosedError, orbits.NotAnEigenvectorError,
                  basisfinder.PatternViolationError):
        assert issubclass(error, la.CheckFailed)
    assert basisfinder.CheckFailed is la.CheckFailed
    assert not issubclass(orbits.KernelOverflowError, la.CheckFailed)


def test_cap_errors_are_one_class():
    assert basisfinder.CapExceededError is orbits.CapExceededError is la.CapExceededError


@pytest.mark.parametrize("error, code, prefix", [
    (orbits.OrbitNotClosedError, 1, "check failed: "),
    (orbits.NotAnEigenvectorError, 1, "check failed: "),
    (orbits.KernelOverflowError, 2, "error: "),
    (orbits.CapExceededError, 2, "error: "),
])
def test_orbit_error_exit_codes(monkeypatch, capsys, error, code, prefix):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(orbits, "perm_images", fail)
    assert run_err(capsys, "orbit", "--seed", "fixed", "--gens", "f1", "--perms") == (
        code, f"{prefix}injected\n")


@pytest.mark.parametrize("word, text", [
    ("a^-1", "gf41 2 2\n1 2\n2 4\n"),      # singular
    ("a a", "gf41 2 3\n1 2 3\n4 5 6\n"),  # not square
])
def test_eval_gf41_arithmetic_errors(tmp_path, capsys, word, text):
    (tmp_path / "a.mat").write_text(text)
    code, err = run_err(capsys, "eval", "--word", word, "--bind", f"a={tmp_path / 'a.mat'}")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


# -- malformed matrix files ------------------------------------------------------

_dims = st.tuples(st.integers(1, 3), st.integers(1, 3))
_residue_rows = _dims.flatmap(lambda d: st.lists(
    st.lists(st.integers(0, 40).map(str), min_size=d[1], max_size=d[1]),
    min_size=d[0], max_size=d[0]))
_not_an_integer = st.sampled_from(["1.5", "x", "1/2", "1e3", "nan", "--1", "4O", "0x1f", "1,2"])


def _gf41_text(rows, header=None):
    header = header or f"gf41 {len(rows)} {len(rows[0])}"
    return "\n".join([header] + [" ".join(r) for r in rows]) + "\n"


@st.composite
def _bad_header(draw):
    word = st.text(alphabet="abx019-./ ", min_size=1, max_size=6)
    bad_dim = st.sampled_from(["x", "1.5", "-", "2/1", "", "one"])
    header = draw(st.one_of(
        st.tuples(word, word, word).map(" ".join),
        st.tuples(st.sampled_from(["gf41", "cyc"]), bad_dim, st.just("1")).map(" ".join),
        st.sampled_from(["gf41", "gf41 2", "cyc 1 1 1", "GF41 1 1", "gf 1 1"])))
    return _gf41_text(draw(_residue_rows), header)


@st.composite
def _ragged_rows(draw):
    rows = draw(_residue_rows)
    header = f"gf41 {len(rows)} {len(rows[0])}"
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["long row", "short row", "row count"]))
    if kind == "long row":
        rows[i] = rows[i] + ["7"]
    elif kind == "short row":
        rows[i] = rows[i][1:]
    else:
        header = f"gf41 {len(rows) + 1} {len(rows[0])}"
    return _gf41_text(rows, header)


@st.composite
def _non_integer_residue(draw):
    rows = draw(_residue_rows)
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = draw(_not_an_integer)
    return _gf41_text(rows)


@st.composite
def _bad_cyc(draw):
    entries = [[str(draw(st.integers(-3, 3))) for _ in range(8)] for _ in range(2)]
    k, c = draw(st.integers(0, 1)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["zero denominator", "ragged", "non-rational"]))
    if kind == "zero denominator":
        entries[k][c] = f"{draw(st.integers(-5, 5))}/0"
    elif kind == "ragged":
        entries[k] = entries[k][:c] if c else entries[k] + ["1"]
    else:
        entries[k][c] = draw(_not_an_integer.filter(lambda t: t not in ("1.5", "1/2", "1e3")))
    return "cyc 1 2\n" + "\n".join(" ".join(e) for e in entries) + "\n"


def _cli_on_file(text, argv_for):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mat")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv_for(path))
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_bad_header(), _ragged_rows(), _non_integer_residue(), _bad_cyc()),
       st.sampled_from([lambda path: ["reduce41", "--in", path],
                        lambda path: ["eval", "--word", "a", "--bind", f"a={path}"]]))
def test_malformed_matrix_files_exit_2(text, argv_for):
    code, err = _cli_on_file(text, argv_for)
    assert code == 2, text
    assert err.startswith("error: ") and "Traceback" not in err, text


def test_usage_errors(capsys):
    assert cli.run(["nonsense"]) == 2
    assert cli.run([]) == 2


# -- words through eval --------------------------------------------------------

_BOUND = {
    "a": "gf41 2 2\n1 2\n3 4\n",         # invertible mod 41
    "b": "gf41 2 2\n1 2\n2 4\n",         # singular
    "f1": "cyc 2 2\n0 0 0 0 0 0 0 0\n1 0 0 0 0 0 0 0\n"
          "0 1 0 0 0 0 0 0\n0 0 0 0 0 0 0 0\n",   # [[0, 1], [zeta, 0]], of finite order
}

_words = st.recursive(
    st.sampled_from(["a", "a", "b", "f1", "f1", "ab", "af1", "x"]),
    lambda w: st.one_of(
        st.tuples(w, w).map(" ".join),
        st.tuples(w, w).map("".join),
        w.map(lambda s: f"({s})"),
        st.tuples(w, st.integers(-13, 13)).map(lambda p: f"{p[0]}^{p[1]}"),
        st.tuples(w, w).map(lambda p: f"{p[0]}^({p[1]})")),
    max_leaves=6)


@pytest.fixture(scope="module")
def bound_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bound")
    for name, text in _BOUND.items():
        (tmp / f"{name}.mat").write_text(text)
    return {name: tmp / f"{name}.mat" for name in _BOUND}


@settings(max_examples=200, deadline=None)
@given(word=st.one_of(_words, st.text(alphabet="abf12x ()^-09", max_size=16)),
       names=st.one_of(st.just(set(_BOUND)), st.sets(st.sampled_from(sorted(_BOUND)))))
def test_eval_words_on_bound_files_never_trace_back(bound_files, word, names):
    argv = [f"--word={word}"] + [f"--bind={n}={bound_files[n]}" for n in sorted(names)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["eval", *argv])
    assert code in (0, 1, 2), word
    assert "Traceback" not in err.getvalue(), word
    if code == 0:
        assert la.parse_matrix(out.getvalue()).rows == 2 and not err.getvalue()
    else:
        assert err.getvalue().startswith(("error: ", "check failed: ")), word
