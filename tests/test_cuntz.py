import contextlib
import copy
import io
import itertools
import json
import math
import operator
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, strategies as st

import _oracles
from sectorwb import cli, cuntz
from sectorwb.cuntz import (
    CuntzExpr,
    CuntzSyntaxError,
    alpha_apply,
    gen_expr,
    gens,
    haagerup_constants,
    one,
    parse,
    render_expr,
    residual,
    rho_apply,
    rho_images,
    solve_qsystem,
    verify_haagerup_relations,
    zero,
)


S0, T0, T1, T2 = gens()


def test_delta_rule():
    # an expression is its normal form from construction on
    assert CuntzExpr({((1, True), (1, False)): 1}) == one()
    assert len(CuntzExpr({((1, True), (1, False)): 1, ((0, True), (2, False)): 5})) == 1
    assert T0.adjoint() * T0 == one()
    assert S0.adjoint() * T1 == zero()
    assert T1.adjoint() * T2 == zero()
    w = S0 * T1 * (T1.adjoint()) * (S0.adjoint())
    assert w * w == w


@pytest.mark.parametrize("atom", [(-1, False), (4, False), (5, True), (True, False),
                                  (False, True), (1.0, False), ("T0", False)])
def test_constructor_refuses_bad_generator_indices(atom):
    # (-1, False) was held apart from T2 yet printed as T2, so a - T2
    # printed "T2 - T2"; 5 failed only later, in render_expr or rho_apply
    for word in ((atom,), ((1, False), atom), ((0, True), (1, False), atom)):
        for c in (1.0, 0):
            with pytest.raises(ValueError, match=re.escape(f"atom {atom!r}")):
                CuntzExpr({word: c})
    if atom[1] is False:
        with pytest.raises(ValueError, match="generator index must be an int 0..3"):
            gen_expr(atom[0])


@pytest.mark.parametrize("atom", [(1, "False"), (1, 0), (1, 1), (0, None), (2, 1.0),
                                  (3, "")])
def test_constructor_refuses_non_bool_adjoint_flags(atom):
    # the flag was read by truth value: (1, 'False') printed as T0^ and
    # equalled gen_expr(1, True), and (1, 0) was taken as plain T0
    for word in ((atom,), ((1, False), atom), ((0, True), (1, False), atom)):
        for c in (1.0, 0):
            with pytest.raises(ValueError, match=re.escape(f"atom {atom!r}: the adjoint flag")):
                CuntzExpr({word: c})
    with pytest.raises(ValueError, match="adjoint flag must be a bool"):
        gen_expr(*atom)


def test_completeness_rewrite():
    # the range projections sum to 1; the T2 junction is rewritten into the
    # other three, so the sum collapses without a dedicated rule
    total = sum((g * g.adjoint() for g in gens()), zero())
    assert total == one()
    # and a lone T2 T2^ becomes 1 minus the three siblings
    n = T2 * T2.adjoint()
    assert n.terms[()] == 1
    assert len(n) == 4


def test_normalize_fixes_nothing_on_basis_words():
    e = parse("S0*T1^ + 2*T0")
    assert e.terms == {((0, False), (2, True)): 1, ((1, False),): 2}
    assert CuntzExpr(e.terms) == e


def test_residual_of_exact_relation():
    lhs = sum((g * g.adjoint() for g in gens()), zero())
    assert residual(lhs - one()) == 0.0


def test_normal_word_keeps_its_atoms_and_text():
    word = ((1, False), (3, False), (2, True), (0, True))
    assert CuntzExpr({word: 1}).terms == {word: 1}
    assert render_expr(CuntzExpr({word: 2})) == "2*T0*T2*T1^*S0^"


def test_render_and_parse_round_trip():
    e = parse("2*S0*T1^ - T0 + 0.5i*T2*T2") + one()
    assert parse(render_expr(e)) == e
    assert render_expr(one()) == "1"
    assert render_expr(zero()) == "0"
    assert render_expr(-one()) == "-1"
    assert render_expr(T0 - T1) == "T0 - T1"
    tiny = parse("1e-15i*T0")
    assert parse(render_expr(tiny, 0)) == tiny
    # a coefficient with both parts prints as (re+imi), which parse reads back
    for text, shown in (("T0 + 2i*T0", "(1+2i)*T0"), ("T0 - 2i*T0", "(1-2i)*T0"),
                        ("-0.5*T1 + 3i*T1 - T0^", "-T0^ + (-0.5+3i)*T1"),
                        ("1e-20*T0 + 1e-20i*T0", "(1e-20+1e-20i)*T0"), ("1 + 2i", "(1+2i)")):
        e = parse(text)
        assert render_expr(e, 0) == shown
        assert parse(shown) == e
    # every print decision reads the 12-digit coefficient that is printed: 1e-09
    # is pruned at the default tolerance, and a part of 1e-14 next to 1 is dropped
    for e, tol, shown in ((parse("1.0000000000001e-9*T0 + T1"), cuntz.EPS_ABS, "T1"),
                          (T0.scale(complex(1, 1.000000000001e-14)), 0, "T0"),
                          (T0.scale(complex(1.000000000001e-14, 1)), 0, "1i*T0")):
        assert render_expr(e, tol) == shown
        assert render_expr(parse(shown), tol) == shown
    for options in ((), ("--json",)):
        once = _cli_normal_form("1.0000000000001e-9*T0 + T1", *options)
        assert once == "T1" and _cli_normal_form(once, *options) == once


@pytest.mark.parametrize("text, shown", [
    ("1e-15i*T0", "1e-15i*T0"),
    ("1e-20*T0 + 1e-20i*T0", "(1e-20+1e-20i)*T0"),
    ("0.5*T0 + 1e-16i*T0", "0.5*T0"),
])
def test_a_kept_coefficient_prints_every_part_that_is_not_negligible(text, shown):
    # a part is dropped only when it is at most 1e-14 times the other part's
    # magnitude, never for being small in itself
    assert render_expr(parse(text), 0) == shown


def test_parse_error_positions():
    with pytest.raises(CuntzSyntaxError) as exc:
        parse("T0*")
    assert exc.value.position == 3
    with pytest.raises(CuntzSyntaxError) as exc:
        parse("Q0")
    assert exc.value.position == 0
    with pytest.raises(CuntzSyntaxError, match="empty"):
        parse("   ")
    with pytest.raises(CuntzSyntaxError):
        parse("T0 T1")
    # (re+imi) and (re-imi) are the only coefficients in parentheses
    for text in ("(1+2i", "(1+2)", "(1+2i)*T0 + (1 + 2i)*T1", "T0 - (+1+2i)*T1", "()",
                 "T1 + (1+2j)*T0", "(2i)*T0"):
        with pytest.raises(CuntzSyntaxError, match="unexpected character '\\('") as exc:
            parse(text)
        assert exc.value.position == text.rindex("(")


@pytest.mark.parametrize("text, message, position", [
    ("T0 T1", "expected '+' or '-'", 3),
    ("2 T0", "expected '+' or '-'", 2),
    ("- -T0", "expected a generator", 2),
    ("T0 + *T1", "expected a generator", 5),
])
def test_grammar_errors_name_the_rejected_token(text, message, position):
    # the offset is the rejected token's first character, not the
    # whitespace before it
    with pytest.raises(CuntzSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


_PIECES = ["S0", "T0", "T1^", "T2", "2", "0.5i", "1e400", "+", "-", "*", "^", "Q",
           "\u0663", " ", "  ", "\t", "\u00a0"]


@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_syntax_error_offsets_point_at_a_token(text):
    # an error names the offset of the token it rejects: a non-space
    # character, or the end of the text
    try:
        parse(text)
    except CuntzSyntaxError as exc:
        assert exc.position == len(text) or not text[exc.position].isspace()


@pytest.mark.parametrize("text", ["\u0663*T0", "T1 + \u0663*T0", "2.\u0663*T0"])
def test_coefficients_are_ascii_digits(text):
    # "\u0663" (Arabic-Indic three) was read as the coefficient 3
    with pytest.raises(CuntzSyntaxError, match="unexpected character") as exc:
        parse(text)
    assert exc.value.position == text.index("\u0663")


def test_non_finite_coefficient_is_a_syntax_error():
    with pytest.raises(CuntzSyntaxError, match="not finite") as exc:
        parse("T1 -  1e400*T0")
    assert exc.value.position == 6
    with pytest.raises(CuntzSyntaxError) as exc:
        parse("2e999i")
    assert exc.value.position == 0
    message = re.escape("coefficient (1-1e999i) is not finite")
    with pytest.raises(CuntzSyntaxError, match=message) as exc:
        parse("T0 + (1-1e999i)*T1")
    assert exc.value.position == 5
    assert parse("1e-400*T0") == parse("0*T0")


def test_overflowed_coefficient_is_not_rendered():
    # inf would be printed, and nan (inf - inf) pruned away as if it were 0;
    # max() would pass over the nan and give a residual of 1
    # a part is negligible only next to a finite part, so the message shows both
    for text, shown in (("1e308*T0 + 1e308*T0", "inf"),
                        ("T1 + 1e308*T0 + 1e308*T0 - 1e308*T0*T0^*T0 - 1e308*T0*T0^*T0",
                         "nan"),
                        ("3*T0 + 1e308i*T0 + 1e308i*T0", "(3+infi)"),
                        ("1e308*T0 + 1e308*T0 + 3i*T0", "(inf+3i)"),
                        ("(1e308+1e308i)*T0 + (1e308+1e308i)*T0", "(inf+infi)")):
        message = re.escape(f"coefficient of T0 overflows to {shown}") + "$"
        with pytest.raises(ValueError, match=message):
            render_expr(parse(text), 0.5)
        with pytest.raises(ValueError, match=message):
            residual(parse(text))


def test_parse_coefficients():
    e = parse("2i*S0 + 3")
    assert e.terms[((0, False),)] == 2j
    assert e.terms[()] == 3
    assert parse("-T0") == -gen_expr(1, False)


def test_expr_algebra():
    a = parse("S0 + T0")
    b = parse("T0^")
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()
    assert a.adjoint().adjoint() == a
    assert (2 * a).terms == a.scale(2).terms


@pytest.mark.parametrize("shift", [1.5, True, False, 2.0, "1", None])
def test_alpha_refuses_a_shift_that_is_not_an_int(shift):
    # 1.5 used to fail inside the relabelling, True acted as 1, and the zero
    # element has no pair to relabel, so the check comes before any work
    for e in (T0, zero()):
        with pytest.raises(ValueError, match=re.escape(f"alpha shift must be an int, got {shift!r}")):
            alpha_apply(e, shift)


@pytest.mark.parametrize("other", [1, 0, 1.0, 1j, None, "T0", (), {}])
def test_sums_refuse_operands_that_are_not_expressions(other):
    # e + 1 used to raise AttributeError on the int's missing _terms
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(T0, other)
        with pytest.raises(TypeError):
            op(other, T0)


def test_scale_refuses_strings():
    # complex("2") parses, so T0 * "2" used to scale by 2
    for scaled in (lambda: T0 * "2", lambda: "2" * T0, lambda: T0.scale("2"),
                   lambda: zero().scale("x")):
        with pytest.raises(TypeError, match="cannot scale by the string"):
            scaled()
    assert (T0 * 2).terms == T0.scale(2.0).terms == {((1, False),): 2}


def test_constants_satisfy_quadratic():
    c = haagerup_constants()
    assert abs(c.B * c.B - c.B + c.d) < 1e-12
    assert abs(abs(c.B + 1) ** 2 - (c.d - 1) ** 2) < 1e-12
    assert c.A[2][1] == c.A[1][2].conjugate()
    # column sums: each row of A has absolute row sum below 2, nothing blows up
    assert c.d == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-15)


def test_constants_override():
    c = haagerup_constants(a12=0.25 + 0.5j)
    assert c.A[1][2] == 0.25 + 0.5j
    assert c.A[2][1] == 0.25 - 0.5j


def test_constants_key_the_image_cache():
    # equal constants share rho's generator images; a perturbed A(1,2) does not
    c = haagerup_constants()
    assert c == haagerup_constants() and hash(c) == hash(haagerup_constants())
    perturbed = haagerup_constants(a12=c.A[1][2] + 1e-3)
    assert perturbed != c
    assert rho_apply(T0, perturbed) != rho_apply(T0, c)

    def indexes(key):
        # a factor's exact and longer hold its image; its plans are meant to grow
        return {g: (f.exact, f.longer) for g, f in enumerate(cuntz._images(key)[:4])}

    assert indexes(perturbed) != indexes(c)
    # the standard entry still holds the standard images: rho of a word is
    # the product of images built from scratch, and each factor holds their terms
    fresh = rho_images(c)
    assert rho_apply(T0 * S0.adjoint(), c) == fresh[1] * fresh[0].adjoint()
    for g, (exact, longer) in indexes(c).items():
        assert {(u, v): x for v, rows in exact.items() for u, x in rows} == fresh[g]._terms
        # and each longer entry rebuilds a v of exact from its prefix
        for prefix, extensions in longer.items():
            for shift, rest, rows in extensions:
                assert exact[prefix << shift | rest] is rows
    # and products leave those two fields as they were
    before = copy.deepcopy(indexes(c))
    pairs = itertools.product(itertools.product(range(4), (False, True)), repeat=2)
    for w in itertools.islice(pairs, 50):
        rho_apply(CuntzExpr({w: 1.0}), c)
    assert indexes(c) == before


def test_relations_all_pass():
    report = verify_haagerup_relations()
    assert report.all_pass
    assert {c.name for c in report.checks} == {
        "isometry_relations", "t0_s0_relation", "r_element_relation",
        "alpha_rho_commutation", "s0_intertwines_rho_squared"}
    for c in report.checks:
        assert c.residual < 1e-9, c


def test_alpha_has_order_three():
    for g in gens():
        e = alpha_apply(alpha_apply(alpha_apply(g)))
        assert e == g
    assert alpha_apply(S0) == S0


def test_rho_cubed_intertwined_by_s0():
    # S0 intertwines id and rho^2, so rho^3(x) S0 = S0 rho(x)
    for x in gens():
        lhs = rho_apply(rho_apply(rho_apply(x))) * S0
        assert residual(lhs - S0 * rho_apply(x)) < 1e-12


def test_transposed_alpha_breaks_exchange(monkeypatch):
    monkeypatch.setattr(cuntz, "alpha_apply", lambda e: _oracles.permute_t(e, (1, 0, 2)))
    swapped = verify_haagerup_relations()
    assert not swapped.all_pass
    assert swapped.residual_of("alpha_rho_commutation") > 1e-1
    with pytest.raises(KeyError, match="nope"):
        swapped.residual_of("nope")


def test_qsystem_solutions():
    s1, s2 = solve_qsystem()
    d = (3 + math.sqrt(13)) / 2
    for s in (s1, s2):
        assert abs(s.a) ** 2 == pytest.approx(1 / d, abs=1e-9)
        assert abs(s.b) ** 2 == pytest.approx((d - 1) / d, abs=1e-9)
        assert s.norm_sq == pytest.approx(1.0, abs=1e-12)
        for name in ("s0_component", "t0_component",
                     "t1_component", "t2_component"):
            assert s.residuals[name] < 1e-9
    assert s2.a == -s1.a
    assert s2.b == -s1.b
    # the residuals are evaluated once: each equation is even in (a, b), so
    # evaluating it at (-a, -b) agrees bit for bit; each solution has its dict
    assert s1.residuals == s2.residuals and s1.residuals is not s2.residuals
    assert cuntz._qsystem_residuals(s2.a, s2.b, haagerup_constants()) == s2.residuals


atoms = st.tuples(st.integers(min_value=0, max_value=3), st.booleans())
words = st.lists(atoms, min_size=0, max_size=4).map(tuple)
coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)
# raw atom-word dicts: the constructor reduces them, so tests of the
# reduction must start here rather than from an expression's normal terms
raw = st.dictionaries(words, coeffs, min_size=0, max_size=4)


_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
_SIGNED = st.builds(operator.mul, st.sampled_from((1.0, -1.0)), _MAGNITUDES)
_PRINTED = st.one_of(_SIGNED.map(complex), _SIGNED.map(lambda x: x * 1j),
                     st.builds(complex, _SIGNED, _SIGNED))


def _cli_normal_form(text, *options):
    """What `cuntz normalize` prints for text: its JSON normal form with
    ``--json`` among the options, its output line otherwise."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*options, "cuntz", "normalize", text]) == 0
    if "--json" in options:
        return json.loads(out.getvalue())["results"]["normal_form"]
    return out.getvalue().rstrip("\n")


@given(st.dictionaries(words, _PRINTED, min_size=1, max_size=4))
def test_printing_is_a_fixed_point_of_reading(terms):
    # real, imaginary and mixed coefficients of either sign, 1e-300 to 1e300:
    # what render_expr and `cuntz normalize` print reads back to itself
    shown = render_expr(CuntzExpr(terms), 0)
    assert render_expr(parse(shown), 0) == shown
    once = _cli_normal_form(shown, "--json")
    assert _cli_normal_form(once, "--json") == once


@given(raw)
def test_normalize_idempotent(terms):
    e = CuntzExpr(terms)
    assert CuntzExpr(e.terms) == e


@given(raw, raw)
def test_normalize_linear(x, y):
    both = dict(x)
    for w, c in y.items():
        both[w] = both.get(w, 0j) + c
    assert residual(CuntzExpr(both) - (CuntzExpr(x) + CuntzExpr(y))) <= 1e-12


@given(raw)
def test_normalize_star_compatible(terms):
    assert residual(CuntzExpr(_oracles._cuntz_adjoint(terms)) - CuntzExpr(terms).adjoint()) <= 1e-12


@given(words.filter(lambda w: len(w) <= 3), st.integers(min_value=0, max_value=3))
def test_rho_multiplicative_on_words(w, cut):
    cut = min(cut, len(w))
    x = CuntzExpr({w[:cut]: 1.0})
    y = CuntzExpr({w[cut:]: 1.0})
    whole = rho_apply(CuntzExpr({w: 1.0}))
    assert residual(whole - rho_apply(x) * rho_apply(y)) <= 1e-9


# differential tests against the atom-by-atom engine in _oracles

_IMAGES = {g: x.terms for g, x in rho_images().items()}


def _max_diff(e, ref):
    """Largest coefficient difference, with absent terms read as 0."""
    got = e.terms
    return max((abs(got.get(w, 0j) - ref.get(w, 0j)) for w in set(got) | set(ref)),
               default=0.0)


@lru_cache(maxsize=None)
def _oracle_rho2(w):
    return _oracles.cuntz_rho(_oracles.cuntz_rho({w: 1.0 + 0j}, _IMAGES), _IMAGES)


@given(raw)
def test_normalize_matches_oracle(terms):
    assert _max_diff(CuntzExpr(terms), _oracles.cuntz_normalize(terms)) <= 1e-12


@given(st.dictionaries(words.filter(lambda w: len(w) <= 3), coeffs, max_size=3))
def test_rho_matches_oracle(terms):
    assert _max_diff(rho_apply(CuntzExpr(terms)), _oracles.cuntz_rho(terms, _IMAGES)) <= 1e-12


@given(words.filter(lambda w: len(w) <= 2), coeffs)
def test_rho_squared_matches_oracle(w, c):
    ref = {v: c * x for v, x in _oracle_rho2(w).items()}
    assert _max_diff(rho_apply(rho_apply(CuntzExpr({w: c}))), ref) <= 1e-12


# products of normal forms: plain u followed by starred v, up to six atoms
# over four generators, so v1 often is a prefix of u2 or extends it, and
# u and v both ending in T2 give the junction expansion
plain = st.lists(st.integers(min_value=0, max_value=3), max_size=3)
normal_words = st.builds(lambda u, v: tuple((g, False) for g in u) + tuple((g, True) for g in v),
                         plain, plain)
factors = st.dictionaries(st.one_of(normal_words, words), coeffs, max_size=4)
_JUNCTION = {((3, False), (3, True)): 1.0, ((1, False), (3, False), (3, True)): 0.5j}


@given(factors, factors)
@example({}, {(): 1.0})
@example({(): 2.0}, {((3, True),): 1.0})
@example({((3, True),): 1.0}, {((3, False),): 1.0})
@example(_JUNCTION, _JUNCTION)
@example({((2, False), (3, True), (1, True)): 1.0}, {((1, False), (3, False), (0, True)): 1.0})
def test_product_matches_oracle(x, y):
    ref = _oracles.cuntz_normalize(_oracles._cuntz_mul(x, y))
    assert _max_diff(CuntzExpr(x) * CuntzExpr(y), ref) <= 1e-12


@given(factors, factors, factors)
def test_product_associative(x, y, z):
    x, y, z = CuntzExpr(x), CuntzExpr(y), CuntzExpr(z)
    assert residual((x * y) * z - x * (y * z)) <= 1e-12


def test_large_left_factor_matches_oracle():
    # the shape of the rho^3 check: rho^3(T) has about 1300 pairs with v of
    # length up to 3, times a one-pair right factor
    for x in (T0, T2):
        big = rho_apply(rho_apply(rho_apply(x)))
        assert len(big) > 1000
        for small in (S0, T2.adjoint(), T0 * T2.adjoint()):
            ref = _oracles.cuntz_normalize(_oracles._cuntz_mul(big.terms, small.terms))
            assert _max_diff(big * small, ref) <= 1e-12


# word codes at their edges: a word is held as a leading 1 bit and two bits
# per generator, so 33 atoms take 67 bits, and S0 is the digit 0, which sits
# next to the leading bit in S0^n

long_plain = st.lists(st.integers(min_value=0, max_value=3), min_size=33, max_size=40)
s0_power = st.integers(min_value=0, max_value=40).map(lambda n: (0,) * n)
edge_plain = st.one_of(long_plain, s0_power, plain)
edge_words = st.builds(lambda u, v: tuple((g, False) for g in u) + tuple((g, True) for g in v),
                       edge_plain, edge_plain)
edge_factors = st.dictionaries(edge_words, coeffs, min_size=1, max_size=3)
_T2_33 = tuple((3, False) for _ in range(33))
_S0_33 = tuple((0, False) for _ in range(33))


@given(edge_factors)
@example({_T2_33 + _T2_33[::-1]: 1.0})
@example({_S0_33: 1.0, (): 2.0})
@example({_S0_33 + ((0, True),) * 33: 1.0, (): -1.0})
def test_long_and_s0_words_round_trip(terms):
    e = CuntzExpr(terms)
    assert _max_diff(e, _oracles.cuntz_normalize(terms)) <= 1e-12
    assert CuntzExpr(e.terms) == e


def test_s0_powers_are_not_the_empty_word():
    for n in range(1, 41):
        power = CuntzExpr({((0, False),) * n: 1.0})
        assert power != one()
        assert (power + one()).terms == {((0, False),) * n: 1.0, (): 1.0}
        assert power.adjoint() * power == one()
        assert render_expr(power) == "*".join(["S0"] * n)


@given(edge_factors, edge_factors)
@example({_T2_33 + ((3, True),): 1.0}, {_T2_33: 1.0})
@example({_S0_33 + ((0, True),) * 2: 1.0}, {((0, False),) * 40: 1.0})
@example({((0, True),) * 35: 1.0}, {_S0_33: 1.0})
def test_long_products_and_adjoints_match_oracle(x, y):
    ref = _oracles.cuntz_normalize(_oracles._cuntz_mul(x, y))
    assert _max_diff(CuntzExpr(x) * CuntzExpr(y), ref) <= 1e-12
    ref = _oracles.cuntz_normalize(_oracles._cuntz_adjoint(x))
    assert _max_diff(CuntzExpr(x).adjoint(), ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rho_of_s0_powers_matches_oracle(n):
    for w in (((0, False),) * n, ((0, True),) * n, ((0, False),) * n + ((0, True),) * n):
        ref = _oracles.cuntz_rho({w: 1.0 + 0j}, _IMAGES)
        assert _max_diff(rho_apply(CuntzExpr({w: 1.0})), ref) <= 1e-12


@given(st.permutations(range(4)), edge_factors)
@example((0, 2, 3, 1), {_T2_33 + _T2_33[::-1]: 1.0})
@example((3, 1, 2, 0), {_S0_33 + ((3, True),) * 34: 1.0})
def test_rho_on_long_words_matches_oracle(perm, terms):
    # rho of a word of n atoms has about 4^n pairs, so its trie walk over
    # long words is checked with relabelling images standing in for the
    # Haagerup ones, installed under constants of their own
    images = {g: gen_expr(perm[g]) for g in range(4)}
    key = haagerup_constants(a12=0.125j)
    ref = _oracles.cuntz_rho(terms, {g: x.terms for g, x in images.items()})
    record = cuntz._factors(images)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuntz, "_images", lambda c: record)
        assert _max_diff(rho_apply(CuntzExpr(terms), key), ref) <= 1e-12


# bit-for-bit agreement with the pair engine in _oracles, which looks u2's
# prefix up at every length of the left factor's v and relabels digit by
# digit: the same keys in the same order, and the same bits in both parts
# of every coefficient, signed zeros included

_PAIR_IMAGES = {g: x._terms for g, x in rho_images().items()}
_ATOMS = tuple((g, adj) for g in range(4) for adj in (False, True))


def _bits(terms):
    return [(key, c.real.hex(), c.imag.hex()) for key, c in terms.items()]


@lru_cache(maxsize=None)
def _rho3_pairs():
    """rho^3 of S0, T0, T1, T2 from the library and from the oracle."""
    out = []
    for g in gens():
        e, ref = g, g._terms
        for _ in range(3):
            e, ref = rho_apply(e), _oracles.pairs_rho(ref, _PAIR_IMAGES)
        out.append((e, ref))
    return out


def test_rho_cubed_is_bit_identical_to_the_pair_oracle():
    rho3 = _rho3_pairs()
    assert [len(e) for e, _ in rho3] == [372, 1300, 1303, 1305]
    for e, ref in rho3:
        assert _bits(e._terms) == _bits(ref)
        s0 = cuntz.gen_expr(0)
        assert _bits((e * s0)._terms) == _bits(_oracles.pairs_mul(ref, s0._terms))


@pytest.mark.parametrize("n", [1, 2])
def test_rho_and_rho_squared_of_short_words_are_bit_identical_to_the_pair_oracle(n):
    for w in itertools.product(_ATOMS, repeat=n):
        for c in (1.0, -0.5 + 2j):
            e = CuntzExpr({w: c})
            ref = e._terms
            for _ in range(2):
                e, ref = rho_apply(e), _oracles.pairs_rho(ref, _PAIR_IMAGES)
                assert _bits(e._terms) == _bits(ref), w


def test_plans_stop_at_the_cap_and_change_no_bit(monkeypatch):
    # past MAX_PLANS a plan is built and used but not kept
    monkeypatch.setattr(cuntz, "MAX_PLANS", 5)
    record = cuntz._factors(rho_images())
    monkeypatch.setattr(cuntz, "_images", lambda c: record)
    for w in itertools.chain.from_iterable(itertools.product(_ATOMS, repeat=n) for n in (1, 2)):
        e = CuntzExpr({w: -0.5 + 2j})
        ref = e._terms
        for _ in range(2):
            e, ref = rho_apply(e), _oracles.pairs_rho(ref, _PAIR_IMAGES)
            assert _bits(e._terms) == _bits(ref), w
    assert [len(f.plans) for f in record[:4]] == [5, 5, 5, 5]


def test_plans_follow_the_images_they_were_built_from():
    # rho under a key fills plans for the Haagerup images; relabelling images
    # installed under the same key must get plans of their own
    key = haagerup_constants(a12=0.25j)
    e = CuntzExpr({((1, False), (2, True)): 1.0, ((3, False), (0, False), (3, True)): -0.5j})
    with pytest.MonkeyPatch.context() as mp:
        record = cuntz._factors(rho_images())
        mp.setattr(cuntz, "_images", lambda c: record)
        assert _bits(rho_apply(e, key)._terms) == _bits(_oracles.pairs_rho(e._terms, _PAIR_IMAGES))
        for perm in ((0, 2, 3, 1), (3, 1, 2, 0), (0, 1, 2, 3)):
            images = {g: gen_expr(perm[g])._terms for g in range(4)}
            record = cuntz._factors({g: CuntzExpr._of(x) for g, x in images.items()})
            mp.setattr(cuntz, "_images", lambda c: record)
            assert _bits(rho_apply(e, key)._terms) == _bits(_oracles.pairs_rho(e._terms, images))


def test_the_image_cache_keeps_at_most_two_sets_of_constants():
    # a sweep over perturbed constants keeps at most two entries in the cache,
    # not one per set; constants whose entries were dropped give the same bits
    # again, and no two sets give the same bits, so none read another's images
    c = haagerup_constants()
    word = T1 * S0.adjoint() + 0.5 * T2 * T0
    standard = _bits(rho_apply(rho_apply(word, c), c)._terms)
    sweep = [haagerup_constants(a12=c.A[1][2] + k * 1e-3) for k in range(1, 13)]
    first = []
    for p in sweep:
        e = rho_apply(rho_apply(word, p), p)
        fresh = rho_images(p)
        assert rho_apply(T1 * S0.adjoint(), p) == fresh[2] * fresh[0].adjoint()
        first.append(_bits(e._terms))
        assert cuntz._images.cache_info().currsize <= 2
    for p, bits in zip(sweep, first):
        assert _bits(rho_apply(rho_apply(word, p), p)._terms) == bits
    assert _bits(rho_apply(rho_apply(word, c), c)._terms) == standard
    assert len(set(map(str, first))) == len(sweep)


def test_the_triple_factor_is_rho_squared_of_s0_rescaled():
    # rho(S0) = S0/d + sum_i T_i T_i / sqrt(d), so applying rho once more gives
    # sum_i rho(T_i) rho(T_i) = sqrt(d) rho^2(S0) - rho(S0) / sqrt(d): the
    # three terms' pairs mostly cancel in the factor rho takes them as
    c = haagerup_constants()
    rho_s0 = rho_apply(S0, c)
    triple = cuntz._images(c)[4]
    factor = CuntzExpr._of({(u, v): x for v, rows in triple.exact.items() for u, x in rows})
    assert residual(factor - (c.sqrt_d * rho_apply(rho_s0, c) - (1 / c.sqrt_d) * rho_s0)) <= 1e-15
    assert [len(rho_apply(t, c) * rho_apply(t, c)) for t in (T0, T1, T2)] == [31, 35, 31]
    assert len(factor) <= 25


_SHORT_WORDS = [w for n in (1, 2) for w in itertools.product(_ATOMS, repeat=n)]


@pytest.mark.parametrize("perm", [(0, 2, 3, 1), (3, 1, 2, 0), (0, 1, 3, 2)])
def test_rho_squared_under_relabelling_images_matches_oracle(perm):
    # a word of one or two atoms holds no triple under relabelling images,
    # so each also runs as sum_i T_i T_i w, whose triple factor is three
    # pairs and cancels nothing
    images = {g: gen_expr(perm[g]) for g in range(4)}
    ref_images = {g: x.terms for g, x in images.items()}
    key = haagerup_constants(a12=0.125j)
    triple = T0 * T0 + T1 * T1 + T2 * T2
    record = cuntz._factors(images)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuntz, "_images", lambda c: record)
        for w in _SHORT_WORDS:
            for e in (CuntzExpr({w: 1.0}), triple * CuntzExpr({w: -0.5 + 2j})):
                ref = _oracles.cuntz_rho(_oracles.cuntz_rho(e.terms, ref_images), ref_images)
                assert _max_diff(rho_apply(rho_apply(e, key), key), ref) <= 1e-12, w
        # the triple factor was built from these images: sum_i T_i T_i
        # relabelled, three pairs that all have v = 1
        assert len(record[4].exact) == 1


def test_rho_squared_under_perturbed_constants_matches_oracle_and_the_plain_walk(monkeypatch):
    # a perturbed A(1,2) leaves rho no endomorphism, and its triple factor
    # cancels far less; rho is still defined on normal forms, so the oracle
    # applies it to the word's normal form.  The oracle takes over a
    # minute for all 72 words here, so it checks the one-atom words and the words in S0
    # alone, and every word is checked against the trie walk without the
    # regrouping
    p = haagerup_constants(a12=0.25 + 0.5j)
    images = {g: x.terms for g, x in rho_images(p).items()}
    got = {w: rho_apply(rho_apply(CuntzExpr({w: 1.0}), p), p) for w in _SHORT_WORDS}
    triple = cuntz._images(p)[4]
    assert sum(map(len, triple.exact.values())) > 25
    for w, e in got.items():
        if len(w) == 1 or all(g == 0 for g, _ in w):
            ref = _oracles.cuntz_rho(_oracles.cuntz_rho(CuntzExpr({w: 1.0}).terms, images), images)
            assert _max_diff(e, ref) <= 1e-12, w
    monkeypatch.setattr(cuntz, "_twin_subtree", lambda children, depth: None)
    for w, e in got.items():
        assert residual(e - rho_apply(rho_apply(CuntzExpr({w: 1.0}), p), p)) <= 1e-12, w


@pytest.mark.parametrize("images", [None, "perturbed", (0, 2, 3, 1), (3, 1, 2, 0), (0, 1, 3, 2)],
                         ids=["standard", "perturbed", "relabel-0231", "relabel-3120", "relabel-0132"])
def test_rho_squared_agrees_with_its_adjoint_side_evaluation(images, monkeypatch):
    # rho walks the longer words outside, taking rho(X) as rho(X^*)^* when
    # the v of X hold more generators than the u; that is exact for any
    # images, so rho^2(e) and rho^2(e^*)^* agree to rounding, although a
    # word, a single pair, is walked with its u outside in e and its v
    # outside in e^*
    key = haagerup_constants(a12=0.25 + 0.5j) if images == "perturbed" else haagerup_constants()
    if isinstance(images, tuple):
        record = cuntz._factors({g: gen_expr(images[g]) for g in range(4)})
        monkeypatch.setattr(cuntz, "_images", lambda c: record)
    for w in _SHORT_WORDS:
        e = CuntzExpr({w: -0.5 + 2j})
        twice = rho_apply(rho_apply(e, key), key)
        assert residual(twice - rho_apply(rho_apply(e.adjoint(), key), key).adjoint()) <= 1e-12, w


def test_rho_squared_of_the_short_words_takes_177702_pair_products(monkeypatch):
    # every row a right-hand pair meets in _mul_into is one complex product;
    # rho^2 of the 72 one- and two-atom words took 201,081 of them when rho
    # always walked the u outside, 185,050 with the longer words outside and
    # 177,702 when equal inner rows are also summed once.  The factors are
    # built before counting, so the count is the same in any process (their
    # triple factor takes 112 more: 201,193 and 177,814 with it)
    record = cuntz._factors(rho_images())
    monkeypatch.setattr(cuntz, "_images", lambda c: record)
    mul_into, count = cuntz._mul_into, [0]

    def counting(out, factor, b):
        for u2, _ in b:
            joined, exact, longer = factor.plans.get(u2) or factor.plan(u2)
            count[0] += len(joined) + len(exact) + sum(len(rows) for _, _, rows in longer)
        mul_into(out, factor, b)

    monkeypatch.setattr(cuntz, "_mul_into", counting)
    for w in _SHORT_WORDS:
        rho_apply(rho_apply(CuntzExpr({w: 1.0})))
    assert count[0] == 177702


def test_alpha_is_bit_identical_to_the_pair_oracle():
    rho2_t2 = rho_apply(rho_apply(T2 * T0.adjoint()))
    for e in [g for g in gens()] + [rho2_t2] + [e for e, _ in _rho3_pairs()]:
        for shift in range(-1, 5):
            assert _bits(alpha_apply(e, shift)._terms) == _bits(_oracles.pairs_alpha(e._terms, shift))


def test_relabel_matches_the_digit_loop_on_every_short_word():
    # every word of up to 8 generators: the codes below 2 * 4^8 of odd bit length
    perms = {shift: (0,) + tuple((i + shift) % 3 + 1 for i in range(3)) for shift in range(-1, 5)}
    for x in range(1, 2 * 4 ** 8):
        if x.bit_length() % 2:
            for shift, perm in perms.items():
                assert cuntz._relabel(x, shift) == _oracles.relabel_digits(x, perm)


def test_difference_is_bit_identical_to_adding_the_negation():
    (s0, _), (t0, _), (t1, _), (t2, _) = _rho3_pairs()
    # x - y subtracting c directly would give the pair T0 a real part of -0.0
    signed = (CuntzExpr._of({(5, 1): complex(-0.0, 1.0)}), CuntzExpr._of({(5, 1): complex(0.0, -1.0)}))
    # (t0, t0) cancels every pair exactly, and (t0 + t1, t1) every pair of t1
    for x, y in ((t0, t1), (t1, t0), (t2, s0), (s0, t2), (T0, T0 * T1.adjoint()), signed,
                 (t0, t0), (t0 + t1, t1)):
        diff = x - y
        assert _bits(diff._terms) == _bits((x + (-1) * y)._terms)
        assert _bits(diff._terms) == _bits(_oracles.pairs_sub(x._terms, y._terms))


def test_exact_cancellations_leave_no_zero_pair():
    # CuntzExpr._of copies a pair dict only when a coefficient is exactly 0
    assert T0 - T0 == zero() and len(T0 - T0) == 0
    assert (T0 + (-1) * T0)._terms == {}
    # T0^* T0 = 1 and T1^* (-T1) = -1 cancel on the pair (1, 1)
    left = T0.adjoint() + T1.adjoint()
    assert (left * (T0 - T1))._terms == {}
    product = left * (T0 - T1 + T0 * S0)
    assert product == S0 and 0 not in product._terms.values()
    assert alpha_apply(T0 - T0, 1) == zero()


# exact coefficients: the engine keeps the coefficient type it is given, so
# on Gaussian rationals every relation below holds exactly, not to rounding
Q = _oracles.GaussianRational
parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exact_coeffs = st.builds(Q, parts, parts)
exact_raw = st.dictionaries(words.filter(lambda w: len(w) <= 3), exact_coeffs, max_size=3)


def _exact(terms):
    e = CuntzExpr(terms)
    assert all(type(c) is Q for c in e.terms.values())
    return e


def test_exact_generators_satisfy_the_cuntz_relations_exactly():
    one_q = _exact({(): Q(1)})
    g = [_exact({((i, False),): Q(1)}) for i in range(4)]
    completeness = g[0] * g[0].adjoint()
    for x in g[1:]:
        completeness = completeness + x * x.adjoint()
    # a difference is zero() only when every pair cancelled to an exact 0
    assert completeness - one_q == zero()
    for x, y in itertools.product(range(4), repeat=2):
        assert g[x].adjoint() * g[y] - (one_q if x == y else zero()) == zero()


@given(exact_raw, exact_raw, exact_raw)
def test_exact_coefficients_make_the_identities_exactly_zero(x, y, z):
    x, y, z = _exact(x), _exact(y), _exact(z)
    assert (x * y) * z - x * (y * z) == zero()
    for shift in (1, 2):
        assert alpha_apply(alpha_apply(alpha_apply(x, shift), shift), shift) - x == zero()
    assert x.adjoint().adjoint() - x == zero()
    assert (x * y).adjoint() - y.adjoint() * x.adjoint() == zero()
    assert (x - y) - (x + (-1) * y) == zero()


def test_constructor_and_constants_refuse_strings():
    # complex("2") parses, so the constructor used to read "2" as 2
    for word in (((1, False),), (), ((0, True), (1, False))):
        with pytest.raises(TypeError, match="cannot be the string '2'"):
            CuntzExpr({word: "2"})
    with pytest.raises(TypeError):
        haagerup_constants(a12="1+1j")
