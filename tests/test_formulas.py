import pytest
from hypothesis import example, given, settings, strategies as st

import parse_reference
from formula_gen import formula_corpus
from smartlot.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    MAX_DEPTH,
    FormulaDepthError,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    count_eventually,
    eventually_atoms,
    nnf,
    parse,
    pretty,
    promised_atoms,
)
from smartlot.knowledge import _preference
from smartlot.tableaux import NOT_VALID, SATISFIABLE, build_tree, export_tree, is_satisfiable, is_valid


def test_parse_never_gate_example():
    assert parse("G !g3 & g3") == And(Always(Not(Atom("g3"))), Atom("g3"))


def test_parse_preference_example():
    assert parse("g2 & (g2 -> F p010)") == And(
        Atom("g2"), Implies(Atom("g2"), Eventually(Atom("p010")))
    )


def test_parse_single_atom():
    assert parse("p") == Atom("p")


def test_parse_precedence():
    # tightest first: unary, &, |, ->, <->
    assert parse("!p & q | r -> s") == Implies(
        Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")
    )


def test_implies_right_associative():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_chained_iff_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("p <-> q <-> r")


def test_empty_input_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("   ")


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p & ")
    assert exc.value.offset == 4
    assert "atom" in exc.value.expected


def test_unknown_character_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p & ?q")
    assert exc.value.offset == 4


def test_nesting_up_to_the_limit_parses():
    assert parse("!" * MAX_DEPTH + "a") == parse("!!" * (MAX_DEPTH // 2) + "a")
    assert parse("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == Atom("a")
    assert parse("F (" * (MAX_DEPTH // 2) + "a" + ")" * (MAX_DEPTH // 2)) is not None
    assert parse("a -> " * MAX_DEPTH + "a") is not None


DEPTH_CASES = [
    ("!" * 1200 + "a", MAX_DEPTH),
    ("(" * 1200 + "a" + ")" * 1200, MAX_DEPTH),
    ("G (" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, 3 * MAX_DEPTH // 2),
    ("a -> " * (MAX_DEPTH + 1) + "a", 5 * MAX_DEPTH + 2),
    ("p & " + "F " * (MAX_DEPTH + 1) + "q", 4 + 2 * MAX_DEPTH),
]


@pytest.mark.parametrize(
    "text, offset",
    DEPTH_CASES,
    ids=["negations", "parentheses", "always-parenthesis", "implications", "conjunct"],
)
def test_nesting_past_the_limit_is_a_syntax_error(text, offset):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert isinstance(exc.value, FormulaDepthError)
    assert exc.value.offset == offset
    assert f"at offset {offset}" in str(exc.value)


@pytest.mark.parametrize("n", [1200, 5000])
@pytest.mark.parametrize("op, dual", [("&", "|"), ("|", "&")], ids=["conjunction", "disjunction"])
def test_flat_chain_is_no_nesting(op, dual, n):
    # a chain nests to the left as deep as it is long; printing, comparing,
    # hashing, normal form, proving and exporting it must not recurse per link
    text = f" {op} ".join(f"a{i}" for i in range(n))
    f = parse(text)
    assert pretty(f) == text
    g = parse(text)
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
    assert f != parse(f"{text} {op} b")
    assert pretty(nnf(Not(f))) == f" {dual} ".join(f"!a{i}" for i in range(n))
    assert is_satisfiable(f) == SATISFIABLE
    assert is_valid(f) == NOT_VALID
    tree = build_tree(f)
    assert tree.open
    assert len(tree.branches) == (1 if op == "&" else n)
    # the root, one row per literal, and a marker row per branch, each row
    # but the root with an edge from its parent
    assert export_tree(tree).count("\n") == 1 + n + len(tree.branches)
    assert export_tree(tree, "dot").count(" -> ") == n + len(tree.branches)


def test_pretty_examples():
    assert pretty(Atom("p")) == "p"
    assert pretty(And(Always(Not(Atom("g3"))), Atom("g3"))) == "G !g3 & g3"
    assert pretty(Implies(Atom("g1"), Eventually(Atom("p018")))) == "g1 -> F p018"


def test_pretty_minimal_parens():
    assert pretty(parse("g2 & (g2 -> F p010)")) == "g2 & (g2 -> F p010)"
    assert pretty(parse("(p & q) | r")) == "p & q | r"
    assert pretty(parse("p & (q | r)")) == "p & (q | r)"
    assert pretty(parse("G (p -> q)")) == "G (p -> q)"


def test_nnf_examples():
    assert nnf(Not(Eventually(Atom("p")))) == Always(Not(Atom("p")))
    assert nnf(Not(Not(Atom("p")))) == Atom("p")
    assert nnf(Not(And(Atom("p"), Atom("q")))) == Or(Not(Atom("p")), Not(Atom("q")))


def test_nnf_eliminates_implies_iff():
    f = nnf(parse("(p -> q) <-> r"))
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        seen.add(type(g))
        if isinstance(g, (Not, Eventually, Always)):
            stack.append(g.operand)
        elif not isinstance(g, Atom):
            stack.append(g.left)
            stack.append(g.right)
    assert Implies not in seen and Iff not in seen


def test_atoms():
    assert atoms(parse("G !g3 & g3")) == {"g3"}
    assert atoms(parse("g1 & ((g1 -> F p018) | (g1 -> F p015))")) == {
        "g1",
        "p018",
        "p015",
    }
    assert atoms(parse("p <-> p")) == {"p"}


def test_eventually_atoms():
    assert eventually_atoms(parse("g2 -> F p018")) == {"p018"}
    assert eventually_atoms(parse("G !g3")) == set()
    assert eventually_atoms(parse("F (p & G q)")) == {"p", "q"}


def test_count_eventually():
    assert count_eventually(parse("F p & F q")) == 2
    assert count_eventually(parse("G p")) == 0


def test_invalid_atom_name():
    with pytest.raises(ValueError):
        Atom("Foo")
    with pytest.raises(ValueError):
        Atom("")


NODES = [Atom("p"), Not(Atom("p")), And(Atom("p"), Atom("q")), Or(Atom("p"), Atom("q")),
         Implies(Atom("p"), Atom("q")), Iff(Atom("p"), Atom("q")), Eventually(Atom("p")),
         Always(Atom("p"))]


@pytest.mark.parametrize("node", NODES, ids=[type(node).__name__ for node in NODES])
def test_a_node_is_a_slotted_record_printed_once(node, monkeypatch):
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.colour = "red"
    printed = []
    monkeypatch.setattr("smartlot.formulas.pretty", lambda f: printed.append(f) or pretty(f))
    text = str(node)
    assert str(node) is text and printed == [node]
    assert text == pretty(node) and hash(node) == hash(text)


def test_a_parsed_preference_is_the_mined_one():
    f = parse("g2 -> F p018")
    assert f == _preference("g2", "p018") and hash(f) == hash(_preference("g2", "p018"))


def test_parsed_atoms_skip_the_name_check_that_atom_makes(monkeypatch):
    def refuse(atom):
        raise AssertionError("name checked again")

    with pytest.raises(ValueError):
        Atom("Bad")
    monkeypatch.setattr(Atom, "__post_init__", refuse)
    f = parse("p & F q018")
    assert repr(f) == "And(left=Atom(name='p'), right=Eventually(operand=Atom(name='q018')))"
    with pytest.raises(AssertionError):
        Atom("p")


@pytest.mark.parametrize(
    "text, offset",
    [
        ("!" * 1200 + "a ?", 1202),
        ("(a & ?", 5),
        ("a <-> b <-> c ?", 14),
        ("a b ?", 4),
        ("(" * 1200 + "a" + ")" * 1199 + " é", 2401),
    ],
    ids=["past-the-depth-limit", "open-parenthesis", "chained-iff", "two-atoms", "unclosed"],
)
def test_a_bad_character_wins_over_an_earlier_error(text, offset):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert type(exc.value) is FormulaSyntaxError
    assert exc.value.offset == offset
    assert str(exc.value).startswith(f"unexpected character {text[offset]!r} at offset {offset}")


def _outcome(parser, text):
    """The tree `parser` reads from text with its structural `repr` (formula
    equality compares printed texts), or its error as (type, text, offset,
    expected)."""
    try:
        f = parser(text)
        return f, repr(f)
    except FormulaSyntaxError as e:
        return type(e), str(e), e.offset, e.expected


MALFORMED = [
    "", " ", "a ", "a\n", " \t a  \n ", "?", "p & ?q", "a <- b", "a - b", "a => b",
    "A", "Fa", "Gb", "F1", "9a", "a_b", "a.b", "(a", "a)", "a <->", "é", "a\u00a0& b",
    "!" * 1200 + "a", "(" * 1200 + "a" + ")" * 1200, "a -> " * (MAX_DEPTH + 1) + "a",
    "a b", "a <-> b <-> c", "(a <-> b <-> c)", "a ->", "!", "()", "(a))", "a & | b", "<->",
    "a <-->b", "a ->> b", "a\n?", "p ? & (", "!" * 1200 + "a ?", "(a & ?",
]


def test_parse_matches_the_reference_front_end():
    texts = [pretty(f) for f in formula_corpus(seed=0, count=300)] + MALFORMED
    texts += [t.replace(" ", "  \n") for t in texts[:100]]
    texts += [text for text, _ in DEPTH_CASES]
    # the most parser frames per parenthesis
    texts += ["(a <-> b | " * n + "c" + ")" * n for n in (MAX_DEPTH, MAX_DEPTH + 1)]
    for text in texts:
        assert _outcome(parse, text) == _outcome(parse_reference.parse, text), text


# -- property tests ---------------------------------------------------------

names = st.sampled_from(["p", "q", "r", "g1", "p018"])


def formulas():
    return st.recursive(
        names.map(Atom),
        lambda sub: st.one_of(
            sub.map(Not),
            sub.map(Eventually),
            sub.map(Always),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


# One example of each nesting that needs parentheses: the drawn formulas
# miss some of them on some seeds.
@given(formulas())
@example(And(Atom("p"), And(Atom("q"), Atom("r"))))
@example(Or(Atom("p"), Or(Atom("q"), Atom("r"))))
@example(Implies(Implies(Atom("p"), Atom("q")), Atom("r")))
@example(Iff(Iff(Atom("p"), Atom("q")), Atom("r")))
@example(Iff(Atom("p"), Iff(Atom("q"), Atom("r"))))
def test_print_parse_roundtrip(f):
    g = parse(pretty(f))
    assert g == f and hash(g) == hash(f)
    # equality compares printed texts; the dataclass repr compares the trees
    assert repr(g) == repr(f)


A, B, C = Atom("a"), Atom("b"), Atom("c")


@pytest.mark.parametrize(
    "f, g",
    [
        (And(A, And(B, C)), And(And(A, B), C)),
        (Or(A, Or(B, C)), Or(Or(A, B), C)),
        (Implies(A, Implies(B, C)), Implies(Implies(A, B), C)),
        (Iff(A, Iff(B, C)), Iff(Iff(A, B), C)),
        (Not(Not(A)), A),
        (Eventually(Always(A)), Always(Eventually(A))),
    ],
    ids=["and", "or", "implies", "iff", "double-negation", "F-G"],
)
def test_formulas_that_differ_in_shape_print_and_compare_unequal(f, g):
    # formula identity is the printed text: a printer that dropped a needed
    # parenthesis or an operator would merge these
    assert str(f) != str(g)
    assert f != g and not f == g and len({f, g}) == 2


def _nnf_reference(f, negate=False):
    """The textbook recursive definition."""
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _nnf_reference(f.operand, not negate)
    if isinstance(f, (And, Or)):
        cls = type(f) if not negate else (Or if isinstance(f, And) else And)
        return cls(_nnf_reference(f.left, negate), _nnf_reference(f.right, negate))
    if isinstance(f, Implies):
        return _nnf_reference(Or(Not(f.left), f.right), negate)
    if isinstance(f, Iff):
        left, right = f.left, f.right
        if negate:
            return _nnf_reference(Or(And(left, Not(right)), And(Not(left), right)))
        return _nnf_reference(Or(And(left, right), And(Not(left), Not(right))))
    cls = type(f) if not negate else (Always if isinstance(f, Eventually) else Eventually)
    return cls(_nnf_reference(f.operand, negate))


@given(formulas())
def test_nnf_matches_the_recursive_definition(f):
    assert nnf(f) == _nnf_reference(f)
    assert nnf(Not(f)) == _nnf_reference(f, True)


@given(formulas())
def test_nnf_idempotent(f):
    assert nnf(nnf(f)) == nnf(f)


@given(formulas())
def test_nnf_preserves_atoms(f):
    assert atoms(nnf(f)) == atoms(f)


def _children(f):
    return (f.operand,) if isinstance(f, (Not, Eventually, Always)) else (f.left, f.right)


def _all_atoms(f):
    """The plain recursive definition of `atoms(f)`."""
    if isinstance(f, Atom):
        return {f.name}
    return set().union(*map(_all_atoms, _children(f)))


def _atoms_under(f, ops):
    """The plain recursive definition of `atoms(f, ops)`: every atom of the
    operand of each outermost operator of a type in ops."""
    if isinstance(f, ops):
        return _all_atoms(f.operand)
    if isinstance(f, Atom):
        return set()
    return set().union(*(_atoms_under(g, ops) for g in _children(f)))


@given(formulas())
def test_atom_queries_match_the_recursive_definitions(f):
    assert atoms(f) == _all_atoms(f)
    assert eventually_atoms(f) == _atoms_under(f, Eventually)
    assert atoms(f, (Eventually, Always)) == _atoms_under(f, (Eventually, Always))
    assert atoms(f, (Always,)) == _atoms_under(f, Always)


def _promised(f, inside=False):
    """The atoms of a negation normal form that occur unnegated under an F,
    by plain recursion over the built tree."""
    if isinstance(f, Atom):
        return {f.name} if inside else set()
    if isinstance(f, Not):  # over an atom only, in normal form
        return set()
    inside = inside or isinstance(f, Eventually)
    return set().union(*(_promised(g, inside) for g in _children(f)))


@given(formulas())
def test_promised_atoms_are_read_from_the_normal_form(f):
    assert promised_atoms(f) == _promised(nnf(f))


def _tokens(text):
    """The token texts of text, by the reference tokenizer."""
    return parse_reference._tokenize(text)[1][:-1]


@given(formulas(), st.data())
def test_parse_matches_the_reference_on_spaced_formulas(f, data):
    blanks = st.text(alphabet=" \t\n", max_size=3)
    text = "".join(data.draw(blanks) + token for token in _tokens(pretty(f))) + data.draw(blanks)
    assert _outcome(parse, text) == _outcome(parse_reference.parse, text)


@given(st.text(alphabet="pqFGA1!&|()<->? \t\n", max_size=30))
def test_parse_matches_the_reference_on_token_soup(text):
    assert _outcome(parse, text) == _outcome(parse_reference.parse, text)


@settings(max_examples=500)
@given(st.text())
@example("a\u3000&\u2028b")  # whitespace the tokenizer skips
@example("F\x85G (a -> !b) <-> c")
def test_any_text_parses_to_a_formula_that_prints_back_or_is_a_syntax_error(text):
    try:
        f = parse(text)
    except FormulaSyntaxError:  # a FormulaDepthError too
        return
    again = parse(pretty(f))
    assert again == f and repr(again) == repr(f)
