"""Word grammar, printing and evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from tits27 import exactlinalg as la, wordlang as wl
from tits27.exactlinalg import ExactMatrix, RING_CYC
from tits27.wordlang import (Conj, Gen, Inv, Pow, Prod, UnboundNameError,
                             WordSyntaxError, eval_word, gen_names, parse_word,
                             word_to_text)


def test_conjugation_formula():
    t = parse_word("b^((abab^2)^3)")
    inner = Prod((Gen("a"), Gen("b"), Gen("a"), Pow(Gen("b"), 2)))
    assert t == Conj(Gen("b"), Pow(inner, 3))


def test_bound_names_split():
    t = parse_word("e(ac)^8e(ac)^4e", names={"e", "a", "c"})
    ac = Prod((Gen("a"), Gen("c")))
    assert t == Prod((Gen("e"), Pow(ac, 8), Gen("e"), Pow(ac, 4), Gen("e")))


def test_inverse_postfix():
    assert parse_word("x^-1") == Inv(Gen("x"))
    assert parse_word("(ab)^-1") == Inv(Prod((Gen("a"), Gen("b"))))
    assert parse_word("x^-3") == Pow(Gen("x"), -3)


def test_letter_digit_identifiers():
    assert parse_word("f1^(ac)") == Conj(Gen("f1"), Prod((Gen("a"), Gen("c"))))
    assert parse_word("f1 f2") == Prod((Gen("f1"), Gen("f2")))


def test_multi_letter_names_need_binding():
    assert parse_word("eprime", names={"eprime"}) == Gen("eprime")
    # unbound, the run splits into single letters
    assert parse_word("abc") == Prod((Gen("a"), Gen("b"), Gen("c")))


def test_syntax_errors_carry_position():
    for bad in ("(ab", "a^", "a^0", "", "a)b", "a^()", "2ab"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)
    try:
        parse_word("ab^")
    except WordSyntaxError as exc:
        assert exc.pos == 3


def test_nesting_limit():
    depth = wl.MAX_NESTING - 1
    assert parse_word("(" * depth + "a" + ")" * depth) == Gen("a")
    with pytest.raises(WordSyntaxError):
        parse_word("(" * (depth + 1) + "a" + ")" * (depth + 1))
    with pytest.raises(WordSyntaxError):
        parse_word("a^(" * wl.MAX_NESTING + "b" + ")" * wl.MAX_NESTING)


def test_unknown_name_with_bindings():
    with pytest.raises(WordSyntaxError):
        parse_word("xq", names={"a", "b"})


def test_all_standard_words_parse():
    for _, text in wl.STANDARD_WORDS:
        expr = parse_word(text)
        again = parse_word(word_to_text(expr), names=gen_names(expr))
        assert again == expr


def test_eval_conjugation_is_f2(gens):
    env = gens.as_dict()
    assert eval_word(parse_word("f1^ac", names=env), env) == gens.f2


def test_eval_conj_matches_matrix_formula(gens):
    env = gens.as_dict()
    expr = parse_word("eprime^ac", names=env)
    expected = la.mat_mul(la.mat_mul(la.mat_inv(gens.ac), gens.eprime), gens.ac)
    assert eval_word(expr, env) == expected


def test_eval_orders(gens):
    env = gens.as_dict()
    ident = ExactMatrix.identity(27, RING_CYC)
    assert eval_word(parse_word("f1 f1 f1 f1 f1", names=env), env) == ident
    assert eval_word(parse_word("eprime^-1", names=env), env) == gens.eprime
    assert eval_word(parse_word("ac^12", names=env), env) == ident


def test_eval_negative_power_is_inverse(gens):
    env = gens.as_dict()
    m1 = eval_word(parse_word("ac^-5", names=env), env)
    m2 = la.mat_inv(eval_word(parse_word("ac^5", names=env), env))
    assert m1 == m2


def test_eval_unbound():
    with pytest.raises(UnboundNameError):
        eval_word(Gen("zz"), {})


def test_eval_over_gf41():
    from tits27.generators import build_all_gf41
    f1m, f2m, dm, acm, em = build_all_gf41()
    env = {"f1": f1m, "d": dm}
    out = eval_word(parse_word("f1^d", names=env), env)
    assert out.is_diagonal()


_names = st.sampled_from(["a", "b", "x", "y", "f1", "f2", "eprime"])


def _exprs(depth):
    if depth == 0:
        return st.builds(Gen, _names)
    sub = _exprs(depth - 1)
    return st.one_of(
        st.builds(Gen, _names),
        st.builds(lambda f: Prod(tuple(f)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(Inv, sub),
        st.builds(Pow, sub, st.integers(2, 9)),
        st.builds(Pow, sub, st.integers(-9, -2)),
        st.builds(Conj, sub, sub),
    )


@settings(max_examples=80, deadline=None)
@given(_exprs(3))
def test_print_parse_round_trip(expr):
    text = word_to_text(expr)
    assert parse_word(text, names=gen_names(expr)) == expr
