import ast
import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outgrowth import (
    InputError,
    NonConvergenceError,
    bundled_text,
    load_bundled,
    parse_document,
    Violation,
    verify_representative,
)
import outgrowth
from outgrowth import document, free_product, graph_map, legality
from outgrowth.document import parse_word
from outgrowth.cli import _grid, _json, main, turn_text
from outgrowth.dynamics import ITERATIONS, N_GRID, WORD_GUARD, _legal_loop_counts, tree_length_function
from outgrowth.examples import BUNDLED
from outgrowth.free_product import Automorphism, FiniteGroupTable, FreeProduct, word_str
from outgrowth.graph_map import PF_TOLERANCE
from outgrowth.graph_of_groups import MarkedMetricGraph
from conftest import chord_text, tower_text
from test_legality import reference_classify_turns
from test_output_digests import ELEMENTS

IDENTITY_DOC = """
[presentation]
free = a b
[graph]
vertices = v0
base = v0
edge a = v0 v0 1.0
edge b = v0 v0 1.0
marking a = a
marking b = b
[automorphism]
free a = a
free b = b
[inverse]
free a = a
free b = b
[map]
vertex v0 = v0
edge a = a
edge b = b
tether =
"""


# -- parsing and round trips -----------------------------------------------------


def test_all_bundled_parse_and_verify():
    for name in BUNDLED:
        doc = load_bundled(name)
        assert doc.representative is not None
        assert verify_representative(doc.representative) == []


def _name_scans(text: str) -> Counter:
    """Scans of the free, factor and edge name tuples after construction, while parsing text.

    Building a name -> index table scans its names once; a lookup in the
    table scans none.
    """
    scans: Counter = Counter()

    def counting(kind, names):
        class Names(tuple):
            def __iter__(self):
                scans[kind] += 1
                return super().__iter__()

            def __contains__(self, name):
                scans[kind] += 1
                return super().__contains__(name)

        return Names(names)

    group_init, graph_init = FreeProduct.__init__, MarkedMetricGraph.__init__

    def group_init_counting(self, *args, **kwargs):
        group_init(self, *args, **kwargs)
        self.free_names, self.factor_names = counting("free", self.free_names), counting("factor", self.factor_names)

    def graph_init_counting(self, *args, **kwargs):
        graph_init(self, *args, **kwargs)
        self.edge_names = counting("edge", self.edge_names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeProduct, "__init__", group_init_counting)
        patch.setattr(MarkedMetricGraph, "__init__", graph_init_counting)
        parse_document(text)
    return scans


def test_loading_scans_each_name_table_a_constant_number_of_times():
    # 2n words and 3n paths on a rank-n chord rose: no table is rebuilt per word or path
    small, large = _name_scans(chord_text(20)), _name_scans(chord_text(200))
    assert large == small
    assert sum(large.values()) <= 6


WORD_FAULTS = [
    ("P:2 P:3", "line 4: invalid factor letter (0,2)"),
    ("P:2 zz", "line 4: unknown free letter 'zz'"),
    ("P:3 Q:1", "line 4: unknown factor 'Q' in word"),
    ("a P:x", "line 4: bad factor element token 'P:x'"),
]


def test_word_errors_name_unknown_tokens_before_elements_out_of_range():
    G = load_bundled("c2f2_mixed").group  # P is C2
    for text, message in WORD_FAULTS:
        with pytest.raises(InputError) as info:
            parse_word(G, text, 4)
        assert str(info.value) == message


def _counting_token_fallback(patch) -> Counter:
    """Count the words parse_word reads token by token instead of through the group's token table."""
    calls: Counter = Counter()
    per_token = document._parse_letters

    def counting(group, tokens, line):
        calls["fallback"] += 1
        return per_token(group, tokens, line)

    patch.setattr(document, "_parse_letters", counting)
    return calls


@pytest.mark.parametrize("n", [*range(3, 11), 25, 50, 100, 110])
def test_emitted_words_are_all_in_the_token_table(n):
    texts = [chord_text(n), tower_text(n)] + ([bundled_text(name) for name in BUNDLED] if n == 3 else [])
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_token_fallback(patch)
        for text in texts:
            parse_document(text)
    assert calls["fallback"] == 0


_ODD_NAMES = ["a", "b", "a'", "1", "1'", "x:1", "P", "Q'", "R:S"]
_ODD_TAILS = ["", "'", "''", ":0", ":1", ":2", ":01", ":-1", ":x", ":1'", ":S:1"]


@settings(max_examples=300, deadline=None)
@given(
    free=st.lists(st.sampled_from(_ODD_NAMES), max_size=4),
    factors=st.lists(st.sampled_from(_ODD_NAMES), max_size=3),
    tokens=st.lists(st.tuples(st.sampled_from(_ODD_NAMES), st.sampled_from(_ODD_TAILS)), min_size=1, max_size=4),
)
def test_token_table_agrees_with_the_per_token_reading_on_odd_names(free, factors, tokens):
    # names with apostrophes, colons, repeats and "1": the table holds no token the
    # per-token reading would read otherwise, whatever it reads it as
    G = FreeProduct([FiniteGroupTable.cyclic(3, name) for name in factors], len(free), free)
    text = " ".join(name + tail for name, tail in tokens)
    try:
        want = document._parse_letters(G, text.split(), 2)
    except InputError as err:
        want = str(err)
    try:
        got = parse_word(G, text, 2)
    except InputError as err:
        got = str(err)
    assert got == want
    for token, syllables in G.tokens.items():
        assert document._parse_letters(G, [token], 0).syllables == syllables


_ODD_WORDS = ["P:2 P:3", "P:2 zz", "a P:x", "1", "P:0 a", "a'' b", "Q:1", "P:1 P:1 a a' b", "b' P:01 a"]
# the bound concerns hyperbolic elements, so it rejects the identity "1"
_ODD_WORD_EXIT_CODES = {
    "growth": [2, 2, 2, 0, 0, 2, 2, 0, 0],
    "bound": [2, 2, 2, 2, 0, 2, 2, 0, 0],
    "displacement": [2, 2, 2, 0, 0, 2, 2, 0, 0],
}


@pytest.mark.parametrize("command, option", [("growth", "--element"), ("bound", "--element"), ("displacement", "--sample")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_odd_words_give_the_per_token_messages_and_exit_codes(command, option, fmt):
    runs = [[command, "c2f2_mixed", option, word, "--format", fmt] for word in _ODD_WORDS]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeProduct, "parse_tokens", lambda group, tokens: None)  # every word token by token
        expected = [runner.invoke(main, args) for args in runs]
    for args, want, code in zip(runs, expected, _ODD_WORD_EXIT_CODES[command]):
        got = runner.invoke(main, args)
        assert (got.stdout, got.stderr, got.exit_code) == (want.stdout, want.stderr, code)


def test_round_trip_extended_generators():
    doc_text = IDENTITY_DOC.replace(
        "free = a b", "free = a b\nrelative-generators = a b, b"
    )
    doc = parse_document(doc_text)
    assert [word_str(w) for w in doc.group.relative_generators] == ["a b", "b"]


@pytest.mark.parametrize("budget", ["0", "-3", "6"])
def test_search_budget_key_is_unknown(tmp_path, budget):
    bad = IDENTITY_DOC.replace("free = a b", f"free = a b\nrelative-generators = a, b, a b\nsearch-budget = {budget}")
    with pytest.raises(InputError, match="^line 5: unknown key 'search-budget' in \\[presentation\\]$"):
        parse_document(bad)
    path = tmp_path / "budget.gog"
    path.write_text(bad)
    result = runner.invoke(main, ["growth", str(path), "--element", "a b", "--length", "relative"])
    assert result.exit_code == 2


def test_empty_document_rejected():
    with pytest.raises(InputError, match="empty document"):
        parse_document("")


def test_zero_length_edge_names_edge():
    bad = IDENTITY_DOC.replace("edge b = v0 v0 1.0", "edge b = v0 v0 0")
    with pytest.raises(InputError, match="'b'"):
        parse_document(bad)


def test_unknown_edge_reference_positional():
    bad = IDENTITY_DOC.replace("marking b = b", "marking b = c")
    with pytest.raises(InputError, match="line"):
        parse_document(bad)


def test_duplicate_key_rejected():
    bad = IDENTITY_DOC.replace("free a = a\n", "free a = a\nfree a = b\n", 1)
    with pytest.raises(InputError, match="duplicate"):
        parse_document(bad)


GOLDEN_TEXT = bundled_text("golden_ratio_rose")
C3C3_TEXT = bundled_text("c3c3_swap")
# each document is bundled text with one fault, and the message names the fault's line
SCAN_FAULTS = {
    "misspelt relative-generators": (
        GOLDEN_TEXT.replace("free = a b\n", "free = a b\nrelative-generator = a, b, a b\n"),
        "line 6: unknown key 'relative-generator' in [presentation]",
    ),
    "misspelt graph key": (
        GOLDEN_TEXT.replace("edge a =", "edgee a ="),
        "line 9: unknown key 'edgee a' in [graph]",
    ),
    "unknown factor key": (
        C3C3_TEXT.replace("[factor Q]\n", "order = 3\n[factor Q]\n"),
        "line 7: unknown key 'order' in [factor P]",
    ),
    "cyclic and table": (
        C3C3_TEXT.replace("[factor Q]\n", "table = 0 1 2 / 1 2 0 / 2 0 1\n[factor Q]\n"),
        "line 7: [factor P] takes one of 'cyclic' and 'table'",
    ),
    "undeclared factor": (
        C3C3_TEXT.replace("[graph]\n", "[factor R]\ncyclic = 2\n[graph]\n"),
        "line 9: [factor R] is not declared in [presentation]",
    ),
    "misspelt map section": (
        GOLDEN_TEXT.replace("[map]\n", "[mapp]\n"),
        f"line {GOLDEN_TEXT.splitlines().index('[map]') + 1}: unknown section [mapp]",
    ),
    "repeated key in an unknown section": (
        GOLDEN_TEXT + "[notes]\nx = 1\nx = 2\n",
        f"line {len(GOLDEN_TEXT.splitlines()) + 1}: unknown section [notes]",
    ),
    "duplicate section": (
        GOLDEN_TEXT + "[graph]\n",
        f"line {len(GOLDEN_TEXT.splitlines()) + 1}: duplicate section [graph]",
    ),
    "content before any header": ("free = a\n" + GOLDEN_TEXT, "line 1: content before any section header"),
    "line without '='": (
        GOLDEN_TEXT.replace("base = v0\n", "base v0\n"),
        f"line {GOLDEN_TEXT.splitlines().index('base = v0') + 1}: expected 'key = value'",
    ),
}


@pytest.mark.parametrize("case", sorted(SCAN_FAULTS))
def test_scan_rejects_a_fault_at_its_line(case):
    text, message = SCAN_FAULTS[case]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_document(text)


NOT_ISOMORPHISMS = {
    "a to a a": IDENTITY_DOC.replace("marking a = a\n", "marking a = a a\n"),
    "a b to a a": IDENTITY_DOC.replace("marking b = b\n", "marking b = a\n"),
}
NOT_ISOMORPHISM = Violation("isomorphism", "the marking is not an isomorphism")


@pytest.mark.parametrize("case", sorted(NOT_ISOMORPHISMS))
def test_marking_that_is_not_an_isomorphism_rejected(case):
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        parse_document(NOT_ISOMORPHISMS[case])


def test_verify_representative_lists_a_marking_that_is_not_an_isomorphism():
    for marking in ([[(0, 0), (0, 0)], [(2, 0)]], [[(0, 0)], [(0, 0)]]):
        doc = parse_document(IDENTITY_DOC)
        doc.graph.free_marking = tuple(doc.graph.path(0, steps) for steps in marking)
        assert verify_representative(doc.representative) == [NOT_ISOMORPHISM]


C2F2_TEXT = bundled_text("c2f2_mixed")


def _edit(text: str, *changes: tuple[str, str]) -> str:
    """``text`` with each ``(old, new)`` made once, where ``old`` occurs first."""
    for old, new in changes:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


def _unverified(*violations: str) -> str:
    return "representative failed verification:\n  " + "\n  ".join(violations)


# each document is a bundled fixture with one fault; every command exits 2 with the message
DOCUMENT_FAULTS = {
    # [presentation] and [factor X]
    "no presentation": (
        _edit(GOLDEN_TEXT, ("[presentation]\nfree = a b\n", "")),
        "document has no [presentation] section",
    ),
    "duplicate key": (
        _edit(GOLDEN_TEXT, ("free a = b\n", "free a = b\nfree a = a\n")),
        "line 15: duplicate key 'free a' in [automorphism]",
    ),
    "empty document": ("# only a comment\n", "empty document: no sections found"),
    "missing factor section": (_edit(C3C3_TEXT, ("[factor Q]\ncyclic = 3\n", "")), "missing [factor Q] section"),
    "cyclic order not an integer": (
        _edit(C3C3_TEXT, ("cyclic = 3", "cyclic = three")),
        "line 6: cyclic order must be an integer",
    ),
    "cyclic order zero": (_edit(C3C3_TEXT, ("cyclic = 3", "cyclic = 0")), "line 6: cyclic order must be positive"),
    "empty factor section": (
        _edit(C3C3_TEXT, ("[factor P]\ncyclic = 3\n", "[factor P]\n")),
        "[factor P] needs 'cyclic = n' or 'table = ...'",
    ),
    "table row of the wrong length": (
        _edit(C2F2_TEXT, ("cyclic = 2", "table = 0 1 / 1")),
        "line 8: factor P: table row 1 has wrong length",
    ),
    "table entry out of range": (
        _edit(C2F2_TEXT, ("cyclic = 2", "table = 0 5 / 1 0")),
        "line 8: factor P: entry (0,1) out of range",
    ),
    "table element without an inverse": (
        _edit(C2F2_TEXT, ("cyclic = 2", "table = 0 1 / 1 1")),
        "line 8: factor P: some element has no inverse",
    ),
    "table without an identity": (
        _edit(C2F2_TEXT, ("cyclic = 2", "table = 1 0 / 0 1")),
        "line 8: factor P: identity law fails at 0",
    ),
    "table entry not a number": (
        _edit(C2F2_TEXT, ("cyclic = 2", "table = 0 1 / 1 x")),
        "line 8: table entries must be integers",
    ),
    # [graph]
    "no graph": (
        _edit(
            GOLDEN_TEXT,
            ("[graph]\nvertices = v0\nbase = v0\n", ""),
            ("edge a = v0 v0 1.0\nedge b = v0 v0 1.0\n", ""),
            ("marking a = a\nmarking b = b\n", ""),
        ),
        "document has no [graph] section",
    ),
    "no vertices": (_edit(GOLDEN_TEXT, ("vertices = v0", "vertices =")), "[graph] must declare vertices"),
    "unknown base": (_edit(GOLDEN_TEXT, ("base = v0", "base = v1")), "[graph] must declare a valid base vertex"),
    "vertex row of an unknown vertex": (
        _edit(C2F2_TEXT, ("vertex vP = P", "vertex vR = P")),
        "line 12: unknown vertex 'vR'",
    ),
    "vertex row of an unknown factor": (
        _edit(C2F2_TEXT, ("vertex vP = P", "vertex vP = R")),
        "line 12: unknown factor 'R'",
    ),
    "edge without length": (
        _edit(GOLDEN_TEXT, ("edge a = v0 v0 1.0", "edge a = v0 v0")),
        "line 9: edge 'a' needs 'tail head length'",
    ),
    "edge to an unknown vertex": (
        _edit(GOLDEN_TEXT, ("edge a = v0 v0 1.0", "edge a = v0 v1 1.0")),
        "line 9: edge 'a' references unknown vertices",
    ),
    "non-numeric length": (
        _edit(GOLDEN_TEXT, ("edge a = v0 v0 1.0", "edge a = v0 v0 one")),
        "line 9: edge 'a' has non-numeric length",
    ),
    "negative length": (
        _edit(GOLDEN_TEXT, ("edge a = v0 v0 1.0", "edge a = v0 v0 -1")),
        "line 9: edge 'a' has non-positive length -1",
    ),
    "missing marking": (_edit(GOLDEN_TEXT, ("marking b = b\n", "")), "[graph] is missing 'marking b'"),
    # the graph is not a marking of G (validate_graph)
    "disconnected": (_edit(GOLDEN_TEXT, ("vertices = v0", "vertices = v0 v1")), "underlying graph is not connected"),
    "rank mismatch": (
        _edit(
            C3C3_TEXT,
            ("edge sQ = v0 vQ 0.5\n", "edge sQ = v0 vQ 0.5\nedge x = v0 v0 1.0\n"),
            ("edge sQ = sP\n", "edge sQ = sP\nedge x = x\n"),
        ),
        "first Betti number 1 != free rank 0",
    ),
    "duplicate factor": (
        _edit(C2F2_TEXT, ("vertex vP = P\n", "vertex vP = P\nvertex v0 = P\n")),
        "factor P assigned twice",
    ),
    "missing factor": (_edit(C3C3_TEXT, ("vertex vQ = Q\n", "")), "1 of 2 factors assigned to vertices"),
    "marking not a loop": (
        _edit(C2F2_TEXT, ("marking a = a", "marking a = sP")),
        "marking of a is not a loop at the base",
    ),
    "marking not reduced": (_edit(GOLDEN_TEXT, ("marking a = a", "marking a = a b b'")), "marking of a is not reduced"),
    "factor marking off its vertex": (
        _edit(C2F2_TEXT, ("marking P = sP", "marking P = a")),
        "marking of P does not join base to its vertex",
    ),
    "marking not an isomorphism": (
        _edit(GOLDEN_TEXT, ("marking b = b", "marking b = a")),
        "the marking is not an isomorphism",
    ),
    # paths
    "bad element token": (_edit(C2F2_TEXT, ("edge sP = sP", "edge sP = sP P:x")), "line 33: bad element token 'P:x'"),
    "element off its vertex": (
        _edit(C2F2_TEXT, ("edge a = b", "edge a = P:1 b")),
        "line 31: element 'P:1' does not live at vertex v0",
    ),
    "element out of range": (
        _edit(C2F2_TEXT, ("edge sP = sP", "edge sP = sP P:2")),
        "line 33: element index out of range in 'P:2'",
    ),
    "two elements in a row": (
        _edit(C2F2_TEXT, ("edge sP = sP", "edge sP = sP P:1 P:1")),
        "line 33: two consecutive group elements in path",
    ),
    "unknown edge": (_edit(GOLDEN_TEXT, ("edge a = b", "edge a = c")), "line 21: unknown edge 'c' in path"),
    "edge off the path's end": (
        _edit(C2F2_TEXT, ("edge a = b", "edge a = sP b")),
        "line 31: edge 'b' does not start at vertex vP",
    ),
    # [automorphism] and [inverse]
    "image of an unknown free letter": (
        _edit(GOLDEN_TEXT, ("free a = b\n", "free c = b\n")),
        "line 14: unknown free letter 'c'",
    ),
    "image of an unknown factor": (_edit(C3C3_TEXT, ("factor P = Q", "factor R = Q")), "line 19: unknown factor 'R'"),
    "factor image without ':'": (
        _edit(C3C3_TEXT, ("factor P = Q :", "factor P = Q")),
        "line 19: expected 'Target : image table'",
    ),
    "unknown target factor": (_edit(C3C3_TEXT, ("factor P = Q", "factor P = R")), "line 19: unknown target factor 'R'"),
    "iso table not integers": (
        _edit(C3C3_TEXT, ("factor P = Q : 0 1 2", "factor P = Q : 0 1 x")),
        "line 19: iso table entries must be integers",
    ),
    "conjugator of an unknown factor": (
        _edit(C3C3_TEXT, ("[inverse]\n", "conjugator R = 1\n[inverse]\n")),
        "line 21: unknown factor 'R'",
    ),
    "missing free image": (_edit(GOLDEN_TEXT, ("free b = a b\n", "")), "[automorphism] is missing 'free b'"),
    "missing factor image": (
        _edit(C3C3_TEXT, ("factor Q = P : 0 1 2\n[inverse]", "[inverse]")),
        "[automorphism] is missing 'factor Q'",
    ),
    "no inverse": (
        _edit(GOLDEN_TEXT, ("[inverse]\nfree a = b a'\nfree b = a\n", "")),
        "document has no [inverse] section",
    ),
    # [map]
    "vertex image unknown": (
        _edit(GOLDEN_TEXT, ("vertex v0 = v0", "vertex v0 = v1")),
        "line 20: unknown vertex in 'vertex v0 = v1'",
    ),
    "twist-conjugator at an unknown vertex": (
        _edit(C3C3_TEXT, ("twist vQ", "twist-conjugator vR = Q:1\ntwist vQ")),
        "line 29: unknown vertex 'vR'",
    ),
    "twist-conjugator without a factor": (
        _edit(C3C3_TEXT, ("twist vQ", "twist-conjugator vP = 1\ntwist vQ")),
        "line 29: conjugator must be 'Factor:index'",
    ),
    "twist-conjugator not an integer": (
        _edit(C3C3_TEXT, ("twist vQ", "twist-conjugator vP = Q:x\ntwist vQ")),
        "line 29: bad conjugator token 'Q:x'",
    ),
    "twist at an unknown vertex": (_edit(C3C3_TEXT, ("twist vP", "twist vR")), "line 28: unknown vertex 'vR'"),
    "twist not integers": (
        _edit(C3C3_TEXT, ("twist vP = 0 1 2", "twist vP = 0 1 x")),
        "line 28: twist table entries must be integers",
    ),
    "missing vertex image": (_edit(GOLDEN_TEXT, ("vertex v0 = v0\n", "")), "[map] is missing 'vertex v0'"),
    "missing edge image": (_edit(GOLDEN_TEXT, ("edge b = a b\n", "")), "[map] is missing 'edge b'"),
    "base moved without a tether": (
        _edit(
            C3C3_TEXT,
            ("vertex v0 = v0", "vertex v0 = vP"),
            ("edge sP = sQ\nedge sQ = sP\ntether =\n", "edge sP = sP'\nedge sQ = sP'\n"),
        ),
        "[map] moves the base vertex, so it needs a tether",
    ),
    # the map is not a representative (verify_representative)
    "image vertex off the factor": (
        _edit(C3C3_TEXT, ("vertex vP = vQ", "vertex vP = vP")),
        _unverified(
            "[vertex twist] vertex vP carries factor P but its image does not carry factor Q",
            "[edge images] image of sP joins the wrong vertices",
        ),
    ),
    "twist not a bijection": (
        _edit(C3C3_TEXT, ("twist vP = 0 1 2", "twist vP = 0 1 1")),
        _unverified("[vertex twist] missing or non-bijective twist at vP"),
    ),
    # a bijection of C4 that is not a homomorphism: 1 + 1 = 2 goes to 3, but 1 + 1 to 2
    "twist not a homomorphism": (
        _edit(
            C2F2_TEXT,
            ("cyclic = 2", "cyclic = 4"),
            ("P : 0 1", "P : 0 1 2 3"),
            ("P : 0 1\n", "P : 0 1 2 3\n"),
            ("twist vP = 0 1", "twist vP = 0 1 3 2"),
        ),
        _unverified("[vertex twist] twist at vP is not a homomorphism"),
    ),
    "twist-conjugator out of range": (
        _edit(C3C3_TEXT, ("twist vQ", "twist-conjugator vP = Q:3\ntwist vQ")),
        _unverified("[vertex twist] conjugator at vP out of range"),
    ),
    "edge image a point": (
        _edit(C2F2_TEXT, ("edge sP = sP", "edge sP =")),
        _unverified("[edge images] edge sP maps to a point"),
    ),
    "edge image off its ends": (
        _edit(C2F2_TEXT, ("edge a = b", "edge a = sP")),
        _unverified("[edge images] image of a joins the wrong vertices"),
    ),
    "edge image not reduced": (
        _edit(GOLDEN_TEXT, ("edge a = b", "edge a = b a a'")),
        _unverified("[edge images] image of a is not reduced"),
    ),
    "tether off the base's image": (
        _edit(C3C3_TEXT, ("tether =", "tether = sP")),
        _unverified("[tether] tether must join the base to the image of the base"),
    ),
    "marking identity fails": (
        _edit(GOLDEN_TEXT, ("edge b = a b", "edge b = b a")),
        _unverified("[marking mismatch] marking identity fails at generator b: b a != a b"),
    ),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_FAULTS))
def test_document_fault_exits_2_with_its_message(tmp_path, case):
    text, message = DOCUMENT_FAULTS[case]
    path = tmp_path / "fault.gog"
    path.write_text(text)
    result = runner.invoke(main, ["analyze", str(path)])
    assert (result.exit_code, result.stderr) == (2, f"error (InputError): {message}\n")


def _constant_parts(node: ast.expr) -> list[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values if isinstance(part, ast.Constant)]
    return []  # a message passed on from elsewhere


GRAPH_FAULTS = [
    "disconnected",
    "rank mismatch",
    "duplicate factor",
    "missing factor",
    "marking not a loop",
    "marking not reduced",
    "factor marking off its vertex",
]


@pytest.mark.parametrize("case", GRAPH_FAULTS)
def test_cli_rejects_a_graph_that_is_not_a_marking_of_g_for_every_command(tmp_path, case):
    text, message = DOCUMENT_FAULTS[case]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_document(text)
    path = tmp_path / "bad.gog"
    path.write_text(text)
    element = ["--element", "a" if "free = a b" in text else "P:1 Q:1"]
    for command in (
        ["analyze"],
        ["verify"],
        ["sweep"],
        ["displacement"],
        ["bound", *element],
        ["growth", *element],
        ["growth", *element, "--length", "relative"],
    ):
        result = runner.invoke(main, [command[0], str(path), *command[1:], "--format", "json"])
        error = {"type": "InputError", "message": message, "exit_code": 2}
        assert (result.exit_code, json.loads(result.output)["report"]) == (2, {"error": error})


def test_every_check_of_the_document_parser_has_a_fault_case():
    tree = ast.parse(Path(document.__file__).read_text(encoding="utf-8"))
    messages = [message for _, message in (*SCAN_FAULTS.values(), *DOCUMENT_FAULTS.values(), *WORD_FAULTS)]
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "InputError":
            parts = _constant_parts(node.args[0])
            if parts and not any(max(parts, key=len) in message for message in messages):
                missing.append((node.lineno, max(parts, key=len)))
    assert missing == []


def test_analyze_checks_the_graph_once(monkeypatch):
    # parse_document and verify_representative share validate_graph's violations
    calls = []
    connected = MarkedMetricGraph.connected
    monkeypatch.setattr(MarkedMetricGraph, "connected", lambda self: calls.append(self) or connected(self))
    result = runner.invoke(main, ["analyze", "golden_ratio_rose"])
    assert result.exit_code == 0
    assert len(calls) == 1


def test_missing_inverse_section_rejected():
    bad = IDENTITY_DOC.replace("[inverse]\nfree a = a\nfree b = b\n", "")
    with pytest.raises(InputError, match="inverse"):
        parse_document(bad)


THETA_SWAP_DOC = """
[presentation]
free = a b
[graph]
vertices = v0 v1
base = v0
edge e = v0 v1 1.0
edge f = v0 v1 1.0
edge g = v0 v1 1.0
marking a = e f'
marking b = e g'
[automorphism]
free a = a'
free b = b'
[inverse]
free a = a'
free b = b'
[map]
vertex v0 = v1
vertex v1 = v0
edge e = e'
edge f = f'
edge g = g'
tether = e
"""


def test_vertex_swapping_map_with_tether():
    # reversing all three parallel edges inverts both generators; the base
    # moves, so the marking identity is checked through the tether
    doc = parse_document(THETA_SWAP_DOC)
    assert verify_representative(doc.representative) == []
    a = doc.group.free(0)
    assert doc.automorphism.apply(a) == a.inverse()


def test_map_that_moves_the_base_needs_a_tether():
    with pytest.raises(InputError, match=r"^\[map\] moves the base vertex, so it needs a tether$"):
        parse_document(THETA_SWAP_DOC.replace("tether = e\n", ""))


def test_path_may_open_with_a_factor_element():
    graph = load_bundled("c2f2_mixed").graph  # vP is vertex 1, carrying P = C2
    path = document.parse_path(graph, "P:1 sP' a", 1, 7)
    assert (path.start, path.prefix, path.steps) == (1, 1, ((5, 0), (0, 0)))
    assert graph.path_str(path) == "P:1 sP' a"


# C3 * F1 with the factor conjugated by a: P:x -> a' P:x a, so the spoke maps to a' sP
CONJUGATED_DOC = """
[presentation]
free = a
factors = P
[factor P]
cyclic = 3
[graph]
vertices = v0 vP
base = v0
vertex vP = P
edge a = v0 v0 1.0
edge sP = v0 vP 0.5
marking a = a
marking P = sP
[automorphism]
free a = a
factor P = P : 0 1 2
conjugator P = a
[inverse]
free a = a
factor P = P : 0 1 2
conjugator P = a'
[map]
vertex v0 = v0
vertex vP = vP
edge a = a
edge sP = a' sP
tether =
"""


def test_conjugator_rows_are_read_in_both_sections(tmp_path):
    auto = parse_document(CONJUGATED_DOC).automorphism
    assert (word_str(auto.conjugators[0]), word_str(auto.inverse.conjugators[0])) == ("a", "a'")
    path = tmp_path / "conjugated.gog"
    path.write_text(CONJUGATED_DOC)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    path.write_text(CONJUGATED_DOC.replace("conjugator P = a'", "conjugator P = a"))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert "declared inverse fails on factor element P:1" in result.stderr


def test_twist_conjugator_round_trip():
    text = bundled_text("c3c3_swap").replace(
        "twist vP = 0 1 2", "twist vP = 0 1 2\ntwist-conjugator vP = Q:1"
    )
    doc = parse_document(text)
    # conjugation inside the abelian factor is invisible, so this still verifies
    assert verify_representative(doc.representative) == []
    assert doc.representative.vertex_conjugators == {1: 1}


def test_factor_table_document():
    text = """
[presentation]
factors = S
[factor S]
table = 0 1 2 3 4 5 / 1 0 4 5 2 3 / 2 5 0 4 3 1 / 3 4 5 0 1 2 / 4 3 1 2 5 0 / 5 2 3 1 0 4
[graph]
vertices = v0 vS
base = v0
vertex vS = S
edge s = v0 vS 0.5
marking S = s
[automorphism]
factor S = S : 0 1 2 3 4 5
[inverse]
factor S = S : 0 1 2 3 4 5
"""
    # the table above is S3 written as a multiplication table
    doc = parse_document(text.replace("[graph]", "[presentation-end]\n[graph]").replace("[presentation-end]\n", ""))
    assert doc.group.factors[0].order == 6
    assert doc.representative is None


# -- CLI ------------------------------------------------------------------------------


runner = CliRunner()


def test_cli_examples_lists_bundled():
    result = runner.invoke(main, ["examples"])
    assert result.exit_code == 0
    for name in BUNDLED:
        assert name in result.output


def test_cli_analyze_golden():
    result = runner.invoke(main, ["analyze", "golden_ratio_rose"])
    assert result.exit_code == 0
    assert "top eigenvalue: 1.618033988" in result.output
    assert "illegal in 1 step" in result.output


def test_cli_analyze_json_structure():
    result = runner.invoke(main, ["analyze", "golden_ratio_rose", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report"]["top_stratum"] == 1
    assert payload["report"]["transition_matrix"] == [[0, 1], [1, 1]]


def test_cli_analyze_json_brackets():
    result = runner.invoke(main, ["analyze", "golden_ratio_rose", "--format", "json"])
    (stratum,) = json.loads(result.output)["report"]["strata"]
    lo, hi = stratum["bracket"]
    assert lo <= (1 + 5**0.5) / 2 <= hi == stratum["eigenvalue"]
    # one-edge strata and permutation strata are exact
    for name, count in (("polynomial_rose", 2), ("c3c3_swap", 1)):
        result = runner.invoke(main, ["analyze", name, "--format", "json"])
        assert [s["bracket"] for s in json.loads(result.output)["report"]["strata"]] == [[1.0, 1.0]] * count


def test_cli_releases_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main.main(["analyze", "golden_ratio_rose", "--format", "json"], standalone_mode=False)
    assert json.loads(buf.getvalue())["report"]["top_stratum"] == 1
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_cli_growth_polynomial_flags():
    result = runner.invoke(
        main,
        ["growth", "polynomial_rose", "--element", "b", "--iterations", "30"],
    )
    assert result.exit_code == 0
    assert "unconverged-to-1-from-above" in result.output
    payload = runner.invoke(
        main,
        ["growth", "polynomial_rose", "--element", "b", "--iterations", "30", "--format", "json"],
    )
    record = json.loads(payload.output)["report"]
    assert record["estimate"] <= 1.2


def test_cli_verify_identity_fixture(tmp_path):
    path = tmp_path / "identity.gog"
    path.write_text(IDENTITY_DOC)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert "train track: pass" in result.output
    assert "FAIL" not in result.output


def test_cli_verify_polynomial_reports_germ_failure():
    result = runner.invoke(main, ["verify", "polynomial_rose"])
    assert result.exit_code == 0
    assert "germs FAIL (edge b)" in result.output


def test_cli_displacement_csv():
    result = runner.invoke(
        main, ["displacement", "golden_ratio_rose", "--format", "csv", "--sample", "a,b"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1] == "N,lipschitz,witness_edge"
    assert len(lines) == 6


def test_cli_bound_and_sweep():
    result = runner.invoke(main, ["bound", "c2f2_mixed", "--element", "a"])
    assert result.exit_code == 0
    assert "overall: pass" in result.output
    result = runner.invoke(main, ["sweep", "polynomial_rose"])
    assert result.exit_code == 0
    assert "Lip=1.001" in result.output


@pytest.mark.parametrize(
    "command,grid",
    [
        ("displacement", ","),
        ("displacement", "inf"),
        ("sweep", "inf"),
        ("sweep", "1e400"),
        ("sweep", "nan"),
        ("sweep", "0"),
        ("displacement", "1,-10"),
        ("sweep", "1e-310"),
    ],
)
def test_cli_rejects_bad_n_grid(command, grid):
    result = runner.invoke(main, [command, "polynomial_rose", "--n-grid", grid, "--format", "json"])
    assert result.exit_code == 2
    assert json.loads(result.output)["report"]["error"]["type"] == "InputError"


def test_cli_rejects_an_n_grid_that_is_not_numbers():
    result = runner.invoke(main, ["sweep", "golden_ratio_rose", "--n-grid", "1,x"])
    assert (result.exit_code, result.stderr) == (2, "error (InputError): bad N grid '1,x'\n")


@pytest.mark.parametrize("sample", [",", " ", " , ", ""], ids=["comma", "space", "commas", "empty"])
def test_cli_rejects_a_sample_that_names_no_word(sample):
    result = runner.invoke(main, ["displacement", "golden_ratio_rose", "--sample", sample, "--format", "json"])
    assert result.exit_code == 2
    assert json.loads(result.output)["report"]["error"]["type"] == "InputError"


def test_cli_sweep_and_displacement_past_the_float_range_of_n_to_the_r(tmp_path):
    # N^r overflows a float at N = 1000 from r = 103 on; the tower has 110 strata
    path = tmp_path / "tower110.gog"
    path.write_text(tower_text(110))
    result = runner.invoke(main, ["sweep", str(path), "--format", "json"])
    assert result.exit_code == 0
    rows = [(r["N"], r["lipschitz"]) for r in json.loads(result.output)["report"]["rows"]]
    args = ["displacement", str(path), "--sample", "a110", "--iterations", "6", "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    rows += [(r["N"], r["lip"]) for r in json.loads(result.output)["report"]["lipschitz"]]
    assert [n for n, _ in rows] == [1.0, 10.0, 100.0, 1000.0] * 2
    for n, lip in rows:
        assert lip == pytest.approx((n + 1) / n, rel=1e-12, abs=0.0)


def test_readme_command_lines_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "outgrowth"]
    assert len(commands) >= 7
    for argv in commands:
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)


def test_readme_library_block_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert "import outgrowth" in block
    exec(compile(block, "README.md", "exec"), {})


def test_cli_deterministic_output():
    args = ["analyze", "c2f2_mixed", "--format", "json"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_cli_exit_code_validation():
    result = runner.invoke(main, ["analyze", "no_such_thing"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["growth", "golden_ratio_rose", "--element", "zz"])
    assert result.exit_code == 2


def _error_message(result, fmt: str) -> str:
    if fmt == "json":
        return json.loads(result.stdout)["report"]["error"]["message"]
    assert result.stderr.startswith("error (InputError): ")
    return result.stderr.removeprefix("error (InputError): ").rstrip("\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_cli_unreadable_input_exits_with_the_validation_code(tmp_path, kind, fmt):
    path = tmp_path
    if kind == "not-utf-8":
        path = tmp_path / "utf16.gog"
        path.write_bytes(b"\xff\xfe[\x00p\x00")
    result = runner.invoke(main, ["analyze", str(path), "--format", fmt])
    assert result.exit_code == 2
    assert _error_message(result, fmt).startswith(f"cannot read '{path}': ")


def test_cli_growth_rejects_a_misspelt_map_section(tmp_path):
    path = tmp_path / "mapp.gog"
    path.write_text(SCAN_FAULTS["misspelt map section"][0])
    result = runner.invoke(main, ["growth", str(path), "--element", "a"])
    assert result.exit_code == 2
    assert _error_message(result, "text") == SCAN_FAULTS["misspelt map section"][1]


def _fresh_python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports this outgrowth, with ``env`` over
    the current environment less OPENBLAS_NUM_THREADS."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(outgrowth.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**base, **env}, capture_output=True, timeout=120)


def test_cli_reads_input_as_utf_8_under_any_locale(tmp_path):
    path = tmp_path / "cafe.gog"
    path.write_text("# café\n" + GOLDEN_TEXT, encoding="utf-8")
    command = ["-m", "outgrowth.cli", "analyze", str(path)]
    utf8 = _fresh_python(command, PYTHONUTF8="1")
    ascii_locale = _fresh_python(command, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert utf8.returncode == 0, utf8.stderr
    assert ascii_locale.returncode == 0, ascii_locale.stderr
    assert ascii_locale.stdout == utf8.stdout


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_asks_openblas_for_one_thread_unless_told_otherwise(preset):
    code = "import os, outgrowth; print(os.environ['OPENBLAS_NUM_THREADS'])"
    if Path("/proc/self/task").is_dir():  # Linux lists the process's threads there
        code += "; print(len(os.listdir('/proc/self/task')))"
    result = _fresh_python(["-c", code], **({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}))
    assert result.returncode == 0, result.stderr
    value, *threads = result.stdout.decode().split()
    assert value == (preset or "1")
    if preset is None:
        assert threads in ([], ["1"])


def test_cli_defaults_are_the_library_constants():
    defaults = {name: {p.name: p.default for p in command.params} for name, command in main.commands.items()}
    assert defaults["growth"]["guard"] == WORD_GUARD
    assert [defaults[c]["iterations"] for c in ("growth", "displacement", "bound")] == [ITERATIONS] * 3
    assert [tuple(_grid(defaults[c]["n_grid"])) for c in ("displacement", "sweep")] == [N_GRID] * 2
    result = runner.invoke(main, ["analyze", "golden_ratio_rose", "--format", "json"])
    assert json.loads(result.output)["report"]["parameters"] == {"pf_tolerance": PF_TOLERANCE}


def test_cli_exit_code_resource_guard():
    result = runner.invoke(
        main,
        [
            "growth",
            "golden_ratio_rose",
            "--element",
            "a",
            "--iterations",
            "40",
            "--guard",
            "200",
        ],
    )
    assert result.exit_code == 4


@pytest.mark.parametrize("guard", ["0", "-5"])
@pytest.mark.parametrize("length", ["tree", "relative"])
def test_cli_growth_rejects_a_guard_below_one(guard, length):
    args = ["growth", "golden_ratio_rose", "--element", "a", "--length", length, "--guard", guard]
    result = runner.invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 2
    error = json.loads(result.output)["report"]["error"]
    assert error["type"] == "InputError" and "guard" in error["message"]


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_cli_verify_rejects_an_rtt_bound_below_one(bound):
    result = runner.invoke(main, ["verify", "c2f2_mixed", "--rtt-bound", bound, "--format", "json"])
    assert result.exit_code == 2
    error = json.loads(result.output)["report"]["error"]
    assert error == {
        "type": "InputError",
        "message": f"the path bound must be at least 1, not {bound}",
        "exit_code": 2,
    }
    assert "must be at least 1" in runner.invoke(main, ["verify", "c2f2_mixed", "--rtt-bound", bound]).output


def test_cli_verify_validates_the_automorphism_once(monkeypatch):
    calls = []
    validate = Automorphism.validate
    monkeypatch.setattr(Automorphism, "validate", lambda self: calls.append(self) or validate(self))
    assert runner.invoke(main, ["verify", "c2f2_mixed"]).exit_code == 0
    assert len(calls) == 1


def test_cli_verify_decides_c2f2_past_the_old_path_cap():
    result = runner.invoke(main, ["verify", "c2f2_mixed", "--rtt-bound", "12", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)["report"]["relative_train_track"]
    assert [row["ok"] for row in rows] == [True, True]
    assert rows[1]["injectivity_ok"] is True and rows[1]["paths_checked"] == 1_062_880


def _rose_paths(petals: int, bound: int) -> int:
    """Reduced paths of 1 to ``bound`` darts in a rose with no vertex group."""
    return sum(2 * petals * (2 * petals - 1) ** (k - 1) for k in range(1, bound + 1))


@pytest.mark.parametrize("n", [5, 10])
def test_cli_verify_decides_towers_at_the_default_bound(tmp_path, n):
    path = tmp_path / f"tower{n}.gog"
    path.write_text(tower_text(n))
    result = runner.invoke(main, ["verify", str(path), "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)["report"]["relative_train_track"]
    assert [row["stratum"] for row in rows] == list(range(1, n + 1))
    for row in rows[1:]:
        assert row["injectivity_ok"] is True and row["injectivity_bound"] == 2 * n
        assert row["paths_checked"] == _rose_paths(row["stratum"] - 1, 2 * n)


def test_cli_growth_past_the_float_range_exits_with_the_guard_code():
    args = ["growth", "golden_ratio_rose", "--element", "b", "--iterations", "2000", "--guard", str(10**401)]
    result = runner.invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    error = json.loads(result.output)["report"]["error"]
    assert error["type"] == "ResourceLimitError" and error["exit_code"] == 4


@pytest.mark.parametrize("length", ["tree", "relative"])
def test_cli_growth_word_path_iterates_the_cyclic_core(length):
    # the automorphism fixes the class of the commutator, so only a conjugator could grow
    args = ["growth", "golden_ratio_rose", "--element", "a b' a' b", "--iterations", "30", "--guard", "1000"]
    result = runner.invoke(main, [*args, "--length", length, "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["report"]["values"] == [4.0] * 31


@pytest.mark.parametrize(
    "map_change",
    [
        lambda text: text.split("[map]")[0],
        # the identity map: iterating its crossing counts would give constant lengths
        lambda text: text.replace("edge b = a b", "edge b = b").replace("edge a = b", "edge a = a"),
    ],
    ids=["no-map", "failing-map"],
)
def test_cli_growth_without_a_verified_map_iterates_words(tmp_path, map_change):
    text = map_change(bundled_text("golden_ratio_rose"))
    path = tmp_path / "golden_ratio_rose"
    path.write_text(text)
    doc = parse_document(text)
    assert doc.representative is None or verify_representative(doc.representative)
    args = ["growth", "--element", "b", "--iterations", "12"]
    for fmt in ("text", "json", "csv"):
        bundled = runner.invoke(main, [args[0], "golden_ratio_rose", *args[1:], "--format", fmt])
        result = runner.invoke(main, [args[0], str(path), *args[1:], "--format", fmt])
        assert result.exit_code == bundled.exit_code == 0
        assert result.output == bundled.output


@pytest.mark.parametrize(
    "text, element, generator",
    [
        (bundled_text("golden_ratio_rose").replace("free b = a\n[map]", "free b = a a\n[map]"), "b", "b"),
        # an endomorphism that is not onto, and no map to verify
        (IDENTITY_DOC.split("[map]")[0].replace("[automorphism]\nfree a = a\n", "[automorphism]\nfree a = a a\n"), "a", "a"),
    ],
    ids=["wrong-inverse", "not-onto-no-map"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_growth_without_a_verified_map_validates_the_automorphism(tmp_path, text, element, generator, fmt):
    path = tmp_path / "bad.gog"
    path.write_text(text)
    result = runner.invoke(main, ["growth", str(path), "--element", element, "--format", fmt])
    assert result.exit_code == 2
    assert _error_message(result, fmt) == f"declared inverse fails on free generator {generator}"


def _legal_elements(doc) -> list[str]:
    """``find_r_legal_hyperbolic`` for r = 1 to the edge count, as words or error messages."""
    out = []
    for r in range(1, doc.graph.n_edges + 1):
        try:
            out.append(word_str(legality.find_r_legal_hyperbolic(doc.representative, r)))
        except InputError as err:
            out.append(str(err))
    return out


def test_only_the_spectral_commands_certify_perron_roots(tmp_path, monkeypatch):
    """With no Perron root certifiable, the turn calculus and RTT checks keep their bytes."""
    texts = {name: bundled_text(name) for name in BUNDLED}
    for n in range(3, 7):
        texts[f"tower{n}"] = tower_text(n)
        (tmp_path / f"tower{n}").write_text(tower_text(n))
    paths = {name: name if name in BUNDLED else str(tmp_path / name) for name in texts}
    golden = load_bundled("golden_ratio_rose")
    b = golden.group.free(1)
    assert _legal_loop_counts(golden.representative, b, tree_length_function(golden.graph)) is not None
    unaffected = [["growth", "golden_ratio_rose", "--element", "b"]]
    unaffected += [["verify", path] for path in paths.values()]
    spectral = [
        [command, paths[name], *options]
        for name in texts
        for command, options in (
            ("analyze", []),
            ("sweep", []),
            ("displacement", ["--iterations", "5"]),
            ("bound", ["--element", ELEMENTS[name], "--iterations", "5"]),
        )
    ]
    fmts = ("text", "json", "csv")
    before = {(*args, fmt): runner.invoke(main, [*args, "--format", fmt]) for args in unaffected for fmt in fmts}
    elements = {name: _legal_elements(parse_document(text)) for name, text in texts.items()}

    def refuse(blocks):
        raise NonConvergenceError("Perron root not certified", best=None)

    monkeypatch.setattr(graph_map, "_pf_stack", refuse)
    for key, expected in before.items():
        result = runner.invoke(main, [*key[:-1], "--format", key[-1]])
        assert (expected.exit_code, result.exit_code, result.output) == (0, 0, expected.output), key
    assert {name: _legal_elements(parse_document(text)) for name, text in texts.items()} == elements
    for args in spectral:
        result = runner.invoke(main, [*args, "--format", "json"])
        assert (result.exit_code, json.loads(result.output)["report"]["error"]["type"]) == (3, "NonConvergenceError")


def test_cli_exit_code_nonconvergence(tmp_path, monkeypatch):
    monkeypatch.setattr(free_product, "SEARCH_BUDGET", 2)
    text = IDENTITY_DOC.replace(
        "free = a b", "free = a b\nrelative-generators = a, b"
    )
    path = tmp_path / "tight.gog"
    path.write_text(text)
    result = runner.invoke(
        main,
        ["growth", str(path), "--element", "a a a a a", "--length", "relative"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("case", sorted(NOT_ISOMORPHISMS))
def test_cli_rejects_a_marking_that_is_not_an_isomorphism(tmp_path, case):
    path = tmp_path / "bad.gog"
    path.write_text(NOT_ISOMORPHISMS[case])
    element = ["--element", "a"]
    for command in (
        ["analyze"],
        ["verify"],
        ["sweep"],
        ["displacement"],
        ["bound", *element],
        ["growth", *element],
        ["growth", *element, "--length", "relative"],
    ):
        args = [command[0], str(path), *command[1:]]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output) == (2, "error (InputError): the marking is not an isomorphism\n")
        result = runner.invoke(main, [*args, "--format", "json"])
        assert result.exit_code == 2
        error = {"type": "InputError", "message": "the marking is not an isomorphism", "exit_code": 2}
        assert json.loads(result.output)["report"] == {"error": error}


EDGELESS_DOC = """
[presentation]
factors = P
[factor P]
cyclic = 2
[graph]
vertices = vP
base = vP
vertex vP = P
marking P =
[automorphism]
factor P = P : 0 1
[inverse]
factor P = P : 0 1
[map]
vertex vP = vP
tether =
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_rejects_a_graph_with_no_edges(tmp_path, fmt):
    path = tmp_path / "edgeless.gog"
    path.write_text(EDGELESS_DOC)
    for command in (["analyze"], ["verify"], ["sweep"], ["displacement"], ["growth", "--element", "P:1"]):
        result = runner.invoke(main, [command[0], str(path), *command[1:], "--format", fmt])
        assert result.exit_code == 2, (command, result.output)
        assert _error_message(result, fmt) == "graph has no edges: strata and tree lengths need at least one edge"
    result = runner.invoke(main, ["growth", str(path), "--element", "P:1", "--length", "relative", "--format", fmt])
    assert result.exit_code == 0


def test_readme_key_table_is_the_parser_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| section | keys |", 1)[1].split("\n\n", 1)[0]
    keys: dict[str, set[str]] = {}
    for row in table.splitlines()[2:]:
        sections, names = (re.findall(r"`([^`]*)`", cell) for cell in row.strip("|").split("|"))
        for section in sections:
            keys[re.sub(r"<\w+>", "", section.strip("[]"))] = {re.sub(r"<\w+>", "", name) for name in names}
    assert keys == document._KEYS


def test_cli_validation_failure_on_broken_map(tmp_path):
    bad = IDENTITY_DOC.replace("edge a = a\n", "edge a = b\n", 1)
    path = tmp_path / "bad.gog"
    path.write_text(bad)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2
    assert "marking" in result.output


# -- JSON emission ---------------------------------------------------------------------


_TRICKY_TEXT = ['"', "\\", "\\n", "\n", "\x00\x1f\x7f", "é ☃ \U0001d11e", "},\n      {", '"},\n    {"', ""]
_TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1f é☃\U0001d11e{}[],: ')) | st.sampled_from(_TRICKY_TEXT)
_JSON_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308]),
)
_FLAT_DICTS = st.dictionaries(_TEXT, _JSON_SCALARS)
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308])
_COLUMNS = st.sampled_from(
    [
        st.booleans() | st.none(),
        st.booleans(),
        st.none(),
        st.integers() | st.none(),
        _FLOATS,
        _TEXT,
        _JSON_SCALARS,
        st.lists(_FLOATS, min_size=2, max_size=2),  # a bracket
        st.lists(_JSON_SCALARS, max_size=3) | st.tuples(_TEXT),
    ]
)


@st.composite
def _uniform_rows(draw):
    # flat dicts with one set of keys, each key's values of one kind: the emitter's columns
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({k: draw(_COLUMNS) for k in keys})
    return draw(st.lists(row, min_size=1, max_size=6))


_RECORDS = st.recursive(
    _JSON_SCALARS
    | _FLAT_DICTS
    | st.lists(_FLAT_DICTS)
    | st.lists(st.dictionaries(_TEXT, _JSON_SCALARS, min_size=1))
    | _uniform_rows(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_RECORDS)
@example({"report": {"legality": [{"turn": "},\n      {", "legal": True}, {"turn": "x", "steps": None}]}})
@example([[], {}, (), [{}], [{"a": 1}, {}], [[]], ({"b": -0.0},)])
@example({"m": [[1, 0], [0, 1]], "n": {0: [True], 2.5: None}, "o": {None: [1e308, float("nan")]}})
@example({"rows": [{"turn": t, "legal": i % 2 == 0, "steps": None if i % 3 else i} for i, t in enumerate(_TRICKY_TEXT)]})
@example([{"turn": t, "legal": i % 2 == 0, "steps": None if i % 3 else i} for i, t in enumerate(_TRICKY_TEXT)])
@example([{"x": x, "y": None} for x in (float("nan"), float("inf"), float("-inf"), -0.0, 1e308, 0, -(10**30))])
@example([[{"a": 1, "b": 2}, {"a": 1, "c": 2}], [{1: 2}, {1: 3}], [{"1": 1}, {1: 1}], [{"a": [1]}, {"a": 2}]])
@example([{"b": [1.0, 2.5], "c": []}, {"b": [-0.0], "c": [None, True, "x\n"]}, {"b": [[1]], "c": []}])
@example([{"b": [1.0, 2.5], "c": []}, {"b": (0.5, 1e308), "c": ["},\n  {"]}])
def test_json_emitter_equals_indented_dumps(record):
    assert _json(record) == json.dumps(record, indent=2, sort_keys=True)


# c2f2_mixed with names that JSON escapes, that hold the turn text's own
# punctuation, and an astral character that JSON writes as a surrogate pair
_TRICKY_NAMES = {
    "V": 'v{0},"\\',
    "W": "w\U0001d11e\x1b}",
    "E": 'e"{,é',
    "F": "f\\\U0001d11e}",
    "S": "s,\x1b{",
    "P": 'Q"\\é',
}
_TRICKY_DOC = """
[presentation]
free = a b
factors = <P>
[factor <P>]
cyclic = 2
[graph]
vertices = <V> <W>
base = <V>
vertex <W> = <P>
edge <E> = <V> <V> 1.0
edge <F> = <V> <V> 1.0
edge <S> = <V> <W> 0.5
marking a = <E>
marking b = <F>
marking <P> = <S>
[automorphism]
free a = b
free b = a b
factor <P> = <P> : 0 1
[inverse]
free a = b a'
free b = a
factor <P> = <P> : 0 1
[map]
vertex <V> = <V>
vertex <W> = <W>
twist <W> = 0 1
edge <E> = <F>
edge <F> = <E> <F>
edge <S> = <S>
tether =
"""


@pytest.mark.parametrize("name", ["chord25", "tower25", "c2f2_mixed", "tricky_names"])
def test_analyze_json_equals_dumps_of_the_reference_table(tmp_path, name):
    if name in BUNDLED:
        arg, doc = name, load_bundled(name)
    else:
        path = tmp_path / f"{name}.gog"
        if name == "tricky_names":
            text = _TRICKY_DOC
            for key, value in _TRICKY_NAMES.items():
                text = text.replace(f"<{key}>", value)
        else:
            text = chord_text(25) if name.startswith("chord") else tower_text(25)
        path.write_text(text, encoding="utf-8")
        arg, doc = str(path), parse_document(text)
    result = runner.invoke(main, ["analyze", arg, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    reference = sorted(reference_classify_turns(doc.representative).entries.items())
    payload["report"]["legality"] = [
        {
            "turn": turn_text(doc.graph, turn),
            "legal": entry.legal,
            "degenerate": entry.degenerate,
            "steps_to_degeneracy": entry.steps_to_degeneracy,
        }
        for turn, entry in reference
    ]
    assert result.output == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    result = runner.invoke(main, ["analyze", arg, "--format", "text"])
    assert result.exit_code == 0
    _, turn_lines = result.output.split("\nturns: ")
    assert turn_lines.split("\n") == [
        f"{len(reference)} ({sum(entry.legal for _, entry in reference)} legal)",
        *(
            f"  {turn_text(doc.graph, turn)}: "
            + ("legal" if e.legal else "degenerate" if e.degenerate else f"illegal in {e.steps_to_degeneracy} step(s)")
            for turn, e in reference
        ),
        "",
    ]
    if name == "tricky_names":
        assert all(value in result.output for value in _TRICKY_NAMES.values())
        assert f"[{_TRICKY_NAMES['P']}:1]" in result.output  # a twisted label


def test_analyze_builds_no_turn_objects(monkeypatch, tmp_path):
    calls = []
    normalise = legality.make_turn
    monkeypatch.setattr(legality, "make_turn", lambda *args: calls.append("make_turn") or normalise(*args))
    path = tmp_path / "chord25.gog"
    path.write_text(chord_text(25))
    result = runner.invoke(main, ["analyze", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["report"]["legality"]) == 25 * 51
    assert calls == []
    # a grouped vertex's turns are enumerated in canonical form, not normalised
    assert runner.invoke(main, ["analyze", "c2f2_mixed", "--format", "json"]).exit_code == 0
    assert calls == []


def test_analyze_json_never_takes_the_pure_python_encoder(monkeypatch, tmp_path):
    path = tmp_path / "chord25.gog"
    path.write_text(chord_text(25))
    calls = []
    python_encoder = json.encoder._make_iterencode
    monkeypatch.setattr(json.encoder, "_make_iterencode", lambda *a, **k: calls.append(1) or python_encoder(*a, **k))
    result = runner.invoke(main, ["analyze", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["report"]["legality"]) == 25 * 51
    assert calls == []
    json.dumps([1], indent=2)  # the patch does see the indented encoder
    assert calls == [1]


def test_analyze_strata_rows_take_the_columnar_writer(monkeypatch, tmp_path):
    from outgrowth import cli

    recursed = []
    parts = cli._json_parts
    monkeypatch.setattr(cli, "_json_parts", lambda obj, *args: recursed.append(obj) or parts(obj, *args))
    path = tmp_path / "tower25.gog"
    path.write_text(tower_text(25))
    result = runner.invoke(main, ["analyze", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert [s["bracket"] for s in json.loads(result.output)["report"]["strata"]] == [[1.0, 1.0]] * 25
    # the strata list goes to the columnar writer whole: no row, and no bracket, on its own
    assert not [x for x in recursed if isinstance(x, dict) and "bracket" in x]
    assert not [x for x in recursed if isinstance(x, list) and x and type(x[0]) is float]


def _dicts_in(obj) -> int:
    if isinstance(obj, dict):
        return 1 + sum(map(_dicts_in, obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(map(_dicts_in, obj))
    return 0


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_analyze_builds_no_dict_per_turn(monkeypatch, tmp_path, fmt):
    from outgrowth import cli

    emitted, labels = [], []
    emit, direction_text = cli._emit, cli._direction_text
    monkeypatch.setattr(cli, "_emit", lambda *args: emitted.append(args) or emit(*args))
    monkeypatch.setattr(cli, "_direction_text", lambda *args: labels.append(args) or direction_text(*args))
    path = tmp_path / "chord25.gog"
    path.write_text(chord_text(25))
    result = runner.invoke(main, ["analyze", str(path), "--format", fmt])
    assert result.exit_code == 0
    [(_, _, record, rows, text)] = emitted
    # the record, its parameters and one stratum in record and rows
    assert _dicts_in([record, rows, text]) <= 4
    if fmt == "csv":
        assert labels == []  # csv prints only the strata
        assert len(result.output.splitlines()) == 3
    else:
        assert len(labels) == 2 * 25
    if fmt == "json":
        assert len(json.loads(result.output)["report"]["legality"]) == 25 * 51
    if fmt == "text":
        assert len(result.output.split("\nturns: ")[1].splitlines()) == 1 + 25 * 51
