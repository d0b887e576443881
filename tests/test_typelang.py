"""Declaration parsing, type expressions, normalization and rank."""

from __future__ import annotations

import gc
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundsub import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILD,
    BipointedGraph,
    ClassTable,
    Con,
    Cov,
    DeclarationError,
    GroundsubError,
    GroundType,
    InfiniteGraph,
    Inv,
    ParseError,
    Wild,
    canonical_label,
    enumerate_types,
    parse_declarations,
    parse_ground_type,
    rank,
    render,
    run,
)

from groundsub import typelang
from groundsub.cli import main
from groundsub.export import FORMATS
from groundsub.typelang import MAX_TYPE_NESTING

from conftest import CORPUS, class_tables
from oracles import (
    _tokenize,
    equals_ignoring_tags,
    reference_hasse,
    reference_normalize_type,
    reference_parse_declarations,
    reference_parse_ground_type,
    shape_type,
)


@pytest.fixture
def one_generic():
    return parse_declarations(CORPUS["one_generic"])


@pytest.fixture
def passthrough():
    return parse_declarations(CORPUS["passthrough"])


class TestParseDeclarations:
    def test_single_generic_class(self, one_generic):
        assert one_generic.classes == ("O", "C", "N")
        assert one_generic.generic == {"C"}
        assert one_generic.extends_edges == {("C", "O"), ("N", "C")}

    def test_plain_beside_generic(self):
        table = parse_declarations(CORPUS["plain_and_generic"])
        assert table.classes == ("O", "C", "D", "N")
        assert table.generic == {"D"}

    def test_passthrough_edges(self, passthrough):
        assert passthrough.extends_edges == {("E", "C"), ("C", "O"), ("N", "E")}

    def test_empty_program_wires_bottom_to_top(self):
        table = parse_declarations("")
        assert table.classes == ("O", "N")
        assert table.extends_edges == {("N", "O")}

    def test_object_alias_in_extends(self):
        table = parse_declarations("class A extends Object {}")
        assert ("A", "O") in table.extends_edges

    def test_forward_reference_is_allowed(self):
        table = parse_declarations("class A extends B {}\nclass B {}")
        assert ("A", "B") in table.extends_edges
        assert ("N", "A") in table.extends_edges
        assert ("N", "B") not in table.extends_edges

    def test_table_yields_valid_bipointed_graph(self, tables):
        for table in tables.values():
            g = table.graph
            assert isinstance(g, BipointedGraph)
            assert g.top == "O" and g.bottom == "N"

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_declarations("class A {}\nclass {}")

    def test_duplicate_class(self):
        with pytest.raises(DeclarationError, match="duplicate"):
            parse_declarations("class A {} class A {}")

    def test_undeclared_superclass(self):
        with pytest.raises(DeclarationError, match="undeclared"):
            parse_declarations("class A extends Zzz {}")

    def test_reserved_names_cannot_be_declared(self):
        for name in ("O", "N", "Object", "Null"):
            with pytest.raises(ParseError, match="reserved"):
                parse_declarations(f"class {name} {{}}")

    def test_cannot_extend_bottom(self):
        with pytest.raises(ParseError, match="bottom"):
            parse_declarations("class A extends Null {}")

    def test_nongeneric_extending_generic_is_rejected(self):
        with pytest.raises(DeclarationError, match="non-generic"):
            parse_declarations("class C<T> {} class D extends C {}")

    def test_generic_must_pass_its_own_parameter(self):
        with pytest.raises(DeclarationError, match="own parameter"):
            parse_declarations("class C<T> {} class E<S> extends C<T> {}")

    def test_generic_extending_generic_requires_passthrough(self):
        with pytest.raises(DeclarationError, match="must pass"):
            parse_declarations("class C<T> {} class E<S> extends C {}")

    def test_argument_to_plain_superclass_is_rejected(self):
        with pytest.raises(DeclarationError, match="non-generic superclass"):
            parse_declarations("class C {} class E<T> extends C<T> {}")

    def test_inheritance_cycle(self):
        with pytest.raises(DeclarationError, match="cycle"):
            parse_declarations("class A extends B {} class B extends A {}")

    def test_long_chain_into_a_two_cycle_names_the_cycle_entry(self):
        chain = "".join(f"class C{i} extends C{i - 1} {{}}\n" for i in range(2000, 1, -1))
        source = chain + "class C1 extends C0 {}\nclass C0 extends C1 {}"
        with pytest.raises(DeclarationError, match="^inheritance cycle through 'C1'$"):
            parse_declarations(source)

    @pytest.mark.parametrize("deepest_first", [False, True])
    def test_cycle_check_looks_each_class_up_at_most_twice(self, deepest_first):
        class CountingDict(dict):
            lookups = 0

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

        n = 2000
        order = range(n - 1, -1, -1) if deepest_first else range(n)
        parents = CountingDict((f"C{i}", f"C{i - 1}" if i else "O") for i in order)
        typelang._reject_cycles(parents)
        # Every class is looked up at least once, as the start of a walk.
        assert n <= parents.lookups <= 2 * n


class TestHandBuiltTable:
    """A table built directly is checked as a parsed one is."""

    # `edges` is the declared superclass map: each user class's one edge up.
    @pytest.mark.parametrize(
        "classes, generic, edges, message",
        [
            (("O", "A", "A", "N"), (), {"A": "O"}, "duplicate class name 'A'"),
            (("A", "N"), (), {"A": "O"}, "table must contain 'O'"),
            (("O", "A"), (), {"A": "O"}, "table must contain 'N'"),
            (("O", "N"), {"N"}, {}, "'N' is never generic"),
            (("O", "N"), {"G"}, {}, "generic set mentions undeclared classes"),
            (("O", "N"), (), {"Z": "O"}, "'Z' is not a user class"),
            (("O", "A", "N"), (), {}, "'A' has no declared superclass"),
            # The bottom's edges are derived, never declared.
            (("O", "A", "N"), (), {"A": "O", "N": "A"}, "'N' is not a user class"),
            (("O", "A", "N"), (), {"A": "O", "O": "A"}, "'O' is not a user class"),
            (("O", "A", "N"), (), {"A": "N"}, "'A' cannot extend the bottom class"),
            (("O", "A", "N"), (), {"A": "Z"}, "'A' extends undeclared class 'Z'"),
            (("O", "A", "B", "N"), (), {"A": "B", "B": "A"}, "inheritance cycle through 'A'"),
        ],
    )
    def test_bad_table_names_its_fault(self, classes, generic, edges, message):
        with pytest.raises(DeclarationError, match=f"^{re.escape(message)}$"):
            ClassTable(classes, generic, edges)

    def test_plain_class_under_generic_is_rejected(self):
        # Accepted before, when `differential_check(table, 2)` reported 13
        # mismatches over its 12 types.
        with pytest.raises(
            DeclarationError, match="^non-generic class 'D' cannot extend generic class 'C'$"
        ):
            ClassTable(("O", "C", "D", "N"), {"C"}, {"C": "O", "D": "C"})

    def test_bottom_must_sit_under_every_minimal_class(self):
        table = ClassTable(("O", "A", "B", "C", "N"), (), {"B": "A", "A": "O", "C": "O"})
        assert table.extends_edges == {
            ("A", "O"), ("B", "A"), ("C", "O"), ("N", "B"), ("N", "C"),
        }

    @pytest.mark.parametrize(
        "source, classes, generic, superclass, minimal",
        [
            ("", ("O", "N"), (), {}, {"O"}),
            (
                "class A {} class B extends A {}",
                ("O", "A", "B", "N"),
                (),
                {"A": "O", "B": "A"},
                {"B"},
            ),
            (
                "class C<T> {} class D<T> extends C<T> {}",
                ("O", "C", "D", "N"),
                {"C", "D"},
                {"C": "O", "D": "C"},
                {"D<?>"},
            ),
        ],
    )
    def test_forest_gives_the_hasse_first_factor(
        self, source, classes, generic, superclass, minimal
    ):
        # A bottom edge into a class with subclasses would be implied by the
        # others, and every approximation built on it would keep it.
        table = ClassTable(classes, generic, superclass)
        parsed = parse_declarations(source)
        for k in (1, 2, 3):
            built = run(table, k).last.graph
            assert equals_ignoring_tags(built, reference_hasse(table, k)), k
            expected = run(parsed, k).last.graph
            for fmt in FORMATS:
                assert render(built, fmt) == render(expected, fmt), (k, fmt)
        graph = InfiniteGraph(table)
        covers = map(shape_type, graph._covers_up(graph._vertex(GroundType("N"), 1), 1))
        assert {canonical_label(t) for t in covers} == minimal

    def test_equals_the_parsed_table(self, passthrough):
        table = ClassTable(("O", "C", "E", "N"), {"C", "E"}, {"E": "C", "C": "O"})
        assert table == passthrough
        assert hash(table) == hash(passthrough)
        assert table.superclass["E"] == "C"
        assert list(table.superclass) == ["C", "E"]

    def test_only_user_classes_have_a_declared_superclass(self, passthrough):
        assert list(passthrough.superclass) == ["C", "E"]
        for name in ("O", "N", "X"):
            assert name not in passthrough.superclass
        with pytest.raises(DeclarationError, match="'E' has no declared superclass"):
            ClassTable(passthrough.classes, passthrough.generic, {"C": "O"})

    def test_is_immutable(self):
        declared = {"A": "O"}
        table = ClassTable(("O", "A", "N"), (), declared)
        declared["A"] = "N"
        assert table.superclass["A"] == "O"
        with pytest.raises(TypeError):
            table.superclass["A"] = "N"  # type: ignore[index]


class TestParseGroundType:
    def test_wildcard_spellings_normalize(self, one_generic):
        t = parse_ground_type("C<? extends Object>", one_generic)
        assert t == GroundType("C", WILD)
        assert canonical_label(t) == "C<?>"

    def test_lower_bound_of_top_is_invariant_top(self, one_generic):
        t = parse_ground_type("C<? super O>", one_generic)
        assert t == GroundType("C", Inv(GroundType("O")))
        assert canonical_label(t) == "C<O>"

    def test_nested_corner_normalizes_recursively(self, passthrough):
        t = parse_ground_type("E<? <: C<? :> N>>", passthrough)
        assert t == GroundType("E", Cov(GroundType("C", WILD)))
        assert canonical_label(t) == "E<? <: C<?>>"

    def test_alternate_keywords(self, one_generic):
        spellings = ["C<? extends C<?>>", "C<? <: C<?>>", "C<?<:C<?>>"]
        parsed = {parse_ground_type(s, one_generic) for s in spellings}
        assert len(parsed) == 1

    def test_unknown_class(self, one_generic):
        with pytest.raises(ParseError, match="unknown class"):
            parse_ground_type("Zzz", one_generic)

    def test_argument_to_plain_class(self, one_generic):
        with pytest.raises(ParseError, match="not generic"):
            parse_ground_type("O<C<?>>", one_generic)

    def test_missing_argument(self, one_generic):
        with pytest.raises(ParseError, match="needs a type argument"):
            parse_ground_type("C", one_generic)

    def test_trailing_input(self, one_generic):
        message = "^line 1, column 3: unexpected trailing input, found 'O'$"
        with pytest.raises(ParseError, match=message):
            parse_ground_type("N O", one_generic)

    def test_nesting_limit(self, one_generic):
        def nested(depth):
            return "C<" * depth + "?" + ">" * depth

        t = parse_ground_type(nested(MAX_TYPE_NESTING), one_generic)
        assert canonical_label(t) == nested(MAX_TYPE_NESTING)
        for depth in (MAX_TYPE_NESTING + 1, 500):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_ground_type(nested(depth), one_generic)

    def test_normalization_is_linear_in_depth(self, one_generic, monkeypatch):
        # The parser normalises as it builds, with one `CORNERS` lookup per
        # bounded argument.
        class CountingCorners(dict):
            lookups = 0

            def __getitem__(self, kind):
                self.lookups += 1
                return super().__getitem__(kind)

        corners = CountingCorners(typelang.CORNERS)
        monkeypatch.setattr(typelang, "CORNERS", corners)
        text = "C<? <: " * MAX_TYPE_NESTING + "O" + ">" * MAX_TYPE_NESTING
        t = parse_ground_type(text, one_generic)
        assert 0 < corners.lookups <= 2 * MAX_TYPE_NESTING
        depth = MAX_TYPE_NESTING - 1
        assert canonical_label(t) == "C<? <: " * depth + "C<?>" + ">" * depth


class TestTokenPositions:
    def test_positions_after_separators(self):
        source = "class\tA<:B :>\r\n  C\u00a0{ // note\n}"
        tokens = [(t.kind, t.text, t.line, t.column) for t in _tokenize(source)]
        assert tokens == [
            ("name", "class", 1, 1),
            ("name", "A", 1, 7),
            ("punct", "<:", 1, 8),
            ("name", "B", 1, 10),
            ("punct", ":>", 1, 12),
            ("name", "C", 2, 3),
            ("punct", "{", 2, 5),
            ("punct", "}", 3, 1),
            ("end", "", 3, 2),
        ]

    @pytest.mark.parametrize(
        "source, line, column, char",
        [
            ("class A {}\n  :", 2, 3, ":"),
            ("class A {} :<", 1, 12, ":"),
            ("class\tA\u00e9 {}", 1, 8, "\u00e9"),
            ("// x\r\n #", 2, 2, "#"),
        ],
    )
    def test_unexpected_character_location(self, source, line, column, char):
        message = f"^line {line}, column {column}: unexpected character {char!r}$"
        with pytest.raises(ParseError, match=message) as info:
            parse_declarations(source)
        assert (info.value.line, info.value.column) == (line, column)

    def test_end_of_input_column_counts_a_trailing_comment(self):
        message = "^line 1, column 18: expected '}', found end of input$"
        with pytest.raises(ParseError, match=message):
            parse_declarations("class A { // open")


class TestNormalization:
    @given(st.data())
    def test_the_corner_table_agrees_with_the_reference(self, data):
        # `CORNERS`, as `parse_ground_type` applies it to a printed type,
        # against the `match` arms, and `is_type` against the arms, on every
        # type of the chain whose names take the arguments they carry.
        table = data.draw(class_tables())
        arg = data.draw(spelled_arguments(table))
        t = GroundType(data.draw(st.sampled_from(sorted(table.generic) or table.classes)), arg)
        while True:
            if fits(t, table):
                normal = reference_normalize_type(t)
                assert parse_ground_type(canonical_label(t), table) == normal, t
                assert table.is_type(t) == (normal == t), t
            if t.arg is None or isinstance(t.arg, Wild):
                break
            t = t.arg.bound

    @pytest.mark.parametrize(
        "over_arguments",
        [typelang.argument_label, lambda arg: rank(GroundType("C", arg))],
        ids=["argument_label", "rank"],
    )
    def test_a_non_argument_is_a_type_error(self, over_arguments):
        with pytest.raises(TypeError, match="not a type argument: 'C'"):
            over_arguments("C")


class TestIsType:
    def test_every_enumerated_type_is_a_type(self, tables):
        for name, table in tables.items():
            assert all(map(table.is_type, enumerate_types(table, 3))), name

    def test_only_normalised_arguments_over_the_table(self, one_generic):
        o, n, c = GroundType("O"), GroundType("N"), GroundType("C", WILD)

        def is_argument(arg):
            return one_generic.is_type(GroundType("C", arg))

        assert all(map(is_argument, [WILD, Inv(o), Inv(n), Cov(c), Con(c)]))
        refused = [Cov(o), Con(o), Cov(n), Con(n), Inv(GroundType("C")), Inv(GroundType("X")), "?"]
        assert not any(map(is_argument, refused))


@st.composite
def spelled_arguments(draw, table, max_depth=6):
    """Strategy for type arguments as written, not normalised, nested up to
    `max_depth` levels.  Every level may be bounded by `O` or `N`, and an
    outer level's bound may be an `O` or `N` that carries an argument,
    which no parse makes."""
    corners = st.sampled_from([TOP_CLASS, BOTTOM_CLASS])
    inner = st.one_of(corners, st.sampled_from(table.classes))
    outer = st.one_of(corners, st.sampled_from(sorted(table.generic) or table.classes))
    kinds = st.sampled_from([Inv, Cov, Con])
    arg = WILD if draw(st.booleans()) else draw(kinds)(GroundType(draw(inner)))
    for _ in range(draw(st.integers(0, max_depth - 1))):
        arg = draw(kinds)(GroundType(draw(outer), arg))
    return arg


def fits(t, table):
    """True when every class along `t` takes an argument exactly if generic."""
    while (t.arg is None) != (t.name in table.generic):
        if t.arg is None or isinstance(t.arg, Wild):
            return True
        t = t.arg.bound
    return False


def ground_types(table, max_depth=3):
    """Strategy for normalized ground types over `table`."""
    return written_types(table, max_depth).map(reference_normalize_type)


def written_types(table, max_depth=3):
    """Strategy for ground types over `table` as written: each class takes
    an argument exactly when generic, and no argument is normalised."""
    plain = sorted(c for c in table.classes if c not in table.generic)
    generics = sorted(table.generic)
    base = st.sampled_from(plain).map(GroundType)
    if not generics:
        return base

    def extend(children):
        args = st.one_of(
            st.just(WILD),
            children.map(Inv),
            children.map(Cov),
            children.map(Con),
        )
        return st.tuples(st.sampled_from(generics), args).map(
            lambda pair: GroundType(pair[0], pair[1])
        )

    return st.recursive(base, extend, max_leaves=max_depth)


# Token separators, among them comments that hold tokens, and the other
# spellings of the bound operators and of the top and the bottom.
_SEPARATORS = ["", " ", "\t", "\r\n", "\u00a0", "// c\n", "// class B<T> {}\n", "//<:?>\r\n"]
_SPELLINGS = {
    "<:": ["<:", "extends"], ":>": [":>", "super"], "O": ["O", "Object"], "N": ["N", "Null"],
}
# What one edit may insert: tokens, and characters that start no token.
_NOISE = [
    "class", "extends", "super", "Null", "K0", "<", ">", "{", "}", "?", "<:", ":>",
    "#", "\u00e9", ":", "/", "1", " ", "\n",
]


@st.composite
def spelled(draw, tokens):
    """Strategy for texts of `tokens`: each respelled, all joined by separators."""
    tokens = [draw(st.sampled_from(_SPELLINGS.get(token, [token]))) for token in tokens]
    pieces = [draw(st.sampled_from(_SEPARATORS))]
    for token, following in zip(tokens, tokens[1:] + [""]):
        glued = token[-1:].isalnum() and following[:1].isalnum()
        pieces += [token, draw(st.sampled_from(_SEPARATORS[1:] if glued else _SEPARATORS))]
    return "".join(pieces)


@st.composite
def edited(draw, items):
    """Strategy for `items` with one of them deleted or replaced by one from
    `_NOISE`, one from `_NOISE` inserted, or two swapped."""
    items = list(items)
    i = draw(st.integers(0, len(items)))
    edit = draw(st.sampled_from(["delete", "replace", "insert", "swap"]))
    if edit == "insert" or not items:
        items.insert(i, draw(st.sampled_from(_NOISE)))
    elif edit == "delete":
        del items[min(i, len(items) - 1)]
    elif edit == "replace":
        items[min(i, len(items) - 1)] = draw(st.sampled_from(_NOISE))
    else:
        i, j = min(i, len(items) - 1), draw(st.integers(0, len(items) - 1))
        items[i], items[j] = items[j], items[i]
    return items


@st.composite
def texts(draw, tokens):
    """Strategy for spelled texts of `tokens`, intact or broken by one edit
    of a token or of a character."""
    how = draw(st.sampled_from(["intact", "token", "character"]))
    if how == "token":
        tokens = draw(edited(tokens))
    text = draw(spelled(tokens))
    if how == "character":
        text = "".join(draw(edited(text)))
    return text


def type_tokens(t):
    return re.findall(r"[A-Za-z]\w*|<:|:>|[<>?]", canonical_label(t))


def declaration_tokens(table, draw):
    """The tokens of a program declaring `table`, an `extends` of the top
    written or left out as `draw` picks."""
    tokens = []
    for name in table.superclass:
        parameter = ["<", "T", ">"] if name in table.generic else []
        sup = table.superclass[name]
        tokens += ["class", name, *parameter]
        if sup != TOP_CLASS or draw(st.booleans()):
            tokens += ["extends", sup, *(parameter if sup in table.generic else [])]
        tokens += ["{", "}"]
    return tokens


def outcome(parse, *args):
    """What `parse` returns, or the class, message and position of what it raises."""
    try:
        return parse(*args)
    except GroundsubError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


class TestRoundTrip:
    @given(st.data())
    def test_parse_after_print_is_identity(self, data):
        table = parse_declarations(CORPUS["passthrough"])
        t = data.draw(ground_types(table))
        assert parse_ground_type(canonical_label(t), table) == t

    @given(st.data())
    def test_separators_never_change_a_parse(self, data):
        table = parse_declarations(CORPUS["passthrough"])
        t = data.draw(ground_types(table))
        assert parse_ground_type(data.draw(spelled(type_tokens(t))), table) == t

    @given(st.data())
    def test_normalization_is_idempotent(self, data):
        table = parse_declarations(CORPUS["two_generics"])
        t = data.draw(ground_types(table))
        assert reference_normalize_type(t) == t
        assert table.is_type(t)


class TestAgainstTheReferenceParsers:
    """Both parsers return what the recursive-descent parsers return, and
    raise what they raise, with the same message, line and column."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_every_one_character_edit_of_the_corpus(self, name):
        # Each program, and its longest type of rank 2 with the long bound
        # operators, with one character deleted, swapped with the next, or
        # replaced by or preceded by an item of `_NOISE`.
        table = parse_declarations(CORPUS[name])
        longest = max(map(canonical_label, enumerate_types(table, 2)), key=len)
        for source in (CORPUS[name], longest.replace("<:", "extends").replace(":>", "super")):
            edits = {source}
            for i in range(len(source) + 1):
                edits.add(source[:i] + source[i + 1 :])
                edits.add(source[:i] + source[i + 1 : i + 2] + source[i : i + 1] + source[i + 2 :])
                for noise in _NOISE:
                    edits.add(source[:i] + noise + source[i + 1 :])
                    edits.add(source[:i] + noise + source[i:])
            for text in edits:
                expected = outcome(reference_parse_declarations, text)
                assert outcome(parse_declarations, text) == expected, text
                expected = outcome(reference_parse_ground_type, text, table)
                assert outcome(parse_ground_type, text, table) == expected, text

    @given(st.data())
    @settings(max_examples=300)
    def test_declarations(self, data):
        table = data.draw(class_tables())
        source = data.draw(texts(declaration_tokens(table, data.draw)))
        assert outcome(parse_declarations, source) == outcome(reference_parse_declarations, source)

    @given(st.data())
    @settings(max_examples=300)
    def test_types(self, data):
        table = data.draw(class_tables())
        head = st.sampled_from(sorted(table.generic) or table.classes)
        t = data.draw(
            st.one_of(
                ground_types(table),
                st.builds(GroundType, head, spelled_arguments(table, max_depth=3)),
            )
        )
        text = data.draw(texts(type_tokens(t)))
        expected = outcome(reference_parse_ground_type, text, table)
        assert outcome(parse_ground_type, text, table) == expected


# Inputs of 100,000 characters and more on which a scan that backtracks
# would not end.
LONG_INPUTS = {
    "identifier": "K" * 100_000 + "#",
    "comment": "/" * 100_000 + "\n#",
    "blanks": " " * 100_000 + "#",
    "open_brackets": "C<" * 100_000,
}


class TestLongInputs:
    @pytest.mark.parametrize("text", LONG_INPUTS.values(), ids=list(LONG_INPUTS))
    @pytest.mark.parametrize("parser", ["declarations", "type"])
    def test_each_ends_in_one_parse_error_within_a_second(self, parser, text, one_generic):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            if parser == "declarations":
                parse_declarations(text)
            else:
                parse_ground_type(text, one_generic)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text", LONG_INPUTS.values(), ids=list(LONG_INPUTS))
    def test_the_cli_prints_one_error_line(self, text, tmp_path, capsys):
        bad, good = tmp_path / "bad.decls", tmp_path / "good.decls"
        bad.write_text(text, encoding="utf-8")
        good.write_text(CORPUS["one_generic"], encoding="utf-8")
        for argv in (["query", "--decls", str(bad), "O", "N"], ["query", "--decls", str(good), text, "O"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: line "), err[:200]


def test_parsing_leaves_no_cyclic_garbage(one_generic):
    nested = "C<? <: " * MAX_TYPE_NESTING + "O" + ">" * MAX_TYPE_NESTING
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for source in CORPUS.values():
            parse_declarations(source)
        parse_ground_type(nested, one_generic)
        for parse in (parse_declarations, lambda text: parse_ground_type(text, one_generic)):
            for text in ("class A { #", "C<C<Zz>>"):
                try:
                    parse(text)
                except ParseError:
                    pass
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


class TestRank:
    def test_plain_names(self):
        assert rank(GroundType("O")) == 0
        assert rank(GroundType("N")) == 0

    def test_default_wildcard_instantiation(self):
        assert rank(GroundType("C", WILD)) == 1

    def test_nested_covariant_bound(self):
        t = GroundType("C", Cov(GroundType("C", WILD)))
        assert rank(t) == 2

    def test_bounded_plain_argument_appears_one_step_late(self):
        # The argument itself must exist as a vertex before the class can be
        # instantiated with it, so a plain bound still costs a full step.
        assert rank(GroundType("C", Inv(GroundType("N")))) == 2
        assert rank(GroundType("C", Cov(GroundType("D", WILD)))) == 2

    def test_rank_matches_first_appearance(self, tables, traces):
        # A normalized type over the program is a vertex of the k-th
        # approximation exactly when its rank is at most k.
        for name, table in tables.items():
            trace = traces[name]
            universe = enumerate_types(table, trace.depth)
            for t in universe:
                label = canonical_label(t)
                for k, s in enumerate(trace.graphs, start=1):
                    assert (label in s.graph.vertices) == (rank(t) <= k), (name, label, k)
