import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import engineered_reference
from patchpred import diffparse, engineered, synth
from patchpred.corpus import Label, PatchRecord
from patchpred.errors import DiffParseError


def patterns(diff):
    return engineered.extract_patterns(diffparse.parse_diff(diff))


def test_constant_change_is_not_single_line():
    flags = patterns("@@ -1 +1 @@\n-a = a + 1;\n+a = a + 2;")
    assert flags["singleLine"] == 0  # two changed lines in total
    assert flags["constantChange"] == 1
    assert flags["onlyAddition"] == 0 and flags["onlyRemoval"] == 0


def test_single_added_line():
    flags = patterns("@@ -1,1 +1,2 @@\n ctx();\n+log();")
    assert flags["singleLine"] == 1
    assert flags["onlyAddition"] == 1


def test_code_move_into_new_if():
    flags = patterns("@@ -1,2 +1,4 @@\n ctx();\n-x();\n+if (g) {\n+x();\n+}")
    assert flags["codeMove"] == 1
    assert flags["wrapsIf"] == 1
    assert flags["unwrapsIf"] == 0


def test_unwrap_try_catch():
    diff = "@@ -1,4 +1,2 @@\n ctx();\n-try {\n-x();\n-} catch (E e) { }\n+x();"
    flags = patterns(diff)
    assert flags["codeMove"] == 1
    assert flags["unwrapsTryCatch"] == 1
    assert flags["wrapsTryCatch"] == 0


def test_conditional_block_add_and_remove():
    add = patterns("@@ -1 +1,3 @@\n ctx();\n+while (busy) {\n+poll();")
    assert add["conditionalBlockAdd"] == 1 and add["conditionalBlockRemove"] == 0
    rem = patterns("@@ -1,3 +1 @@\n ctx();\n-for (;;) {\n-spin();")
    assert rem["conditionalBlockRemove"] == 1 and rem["conditionalBlockAdd"] == 0


def test_expression_fix_inside_condition():
    flags = patterns("@@ -1 +1 @@\n-if (a > b) {\n+if (a >= b) {")
    assert flags["expressionFix"] == 1
    # the change is not purely a literal swap
    assert flags["constantChange"] == 0


def test_string_literal_constant_change():
    flags = patterns('@@ -1 +1 @@\n-log("start");\n+log("begin");')
    assert flags["constantChange"] == 1


def test_code_move_normalizes_whitespace():
    flags = patterns("@@ -1,2 +1,2 @@\n-  x( );\n+      x( );\n ctx();")
    assert flags["codeMove"] == 1


def test_only_removal():
    flags = patterns("@@ -1,2 +1,1 @@\n ctx();\n-dead();")
    assert flags["onlyRemoval"] == 1 and flags["singleLine"] == 1


def fragments(buggy, patched):
    return diffparse.FragmentPair(buggy, patched,
                                  tuple(diffparse.tokenize(buggy)),
                                  tuple(diffparse.tokenize(patched)))


def test_counts_keyword_delta():
    counts = engineered.extract_code_description(fragments("return;", "if (x) return;"))
    assert counts["delta_kw_if"] == 1
    assert counts["delta_kw_return"] == 0
    assert counts["buggy_kw_return"] == 1 and counts["patched_kw_return"] == 1


def test_counts_identical_fragments_have_zero_deltas():
    frag = fragments("if (a) { b(); }", "if (a) { b(); }")
    counts = engineered.extract_code_description(frag)
    assert all(v == 0 for name, v in counts.items() if name.startswith("delta_"))


def test_arithmetic_swap_keeps_class_count():
    counts = engineered.extract_code_description(fragments("a = b + c;", "a = b - c;"))
    assert counts["buggy_op_arithmetic"] == 1
    assert counts["patched_op_arithmetic"] == 1
    assert counts["delta_op_arithmetic"] == 0


def test_operator_classes_and_literals():
    counts = engineered.extract_code_description(
        fragments('if (a <= b && !done) { n = 2; s = "x"; ok = true; }', ""))
    assert counts["buggy_op_relational"] == 1
    assert counts["buggy_op_logical"] == 2  # && and !
    assert counts["buggy_op_assignment"] == 3
    assert counts["buggy_lit_numeric"] == 1
    assert counts["buggy_lit_string"] == 1
    assert counts["buggy_lit_boolean"] == 1


def test_call_like_excludes_keywords():
    counts = engineered.extract_code_description(fragments("if (ready) fire(now);", ""))
    assert counts["buggy_calls"] == 1  # fire(, not if(


def record(diff, patch_id="p"):
    return PatchRecord(patch_id, "Bug-1", "proj", "tool", Label.CORRECT, diff)


def test_extract_all_constant_change_vector():
    vec = engineered.extract_all(record("@@ -1 +1 @@\n-a = a + 1;\n+a = a + 2;"))
    named = dict(zip(vec.names, vec.values))
    assert named["constantChange"] == 1
    assert named["wrapsIf"] == 0 and named["wrapsTryCatch"] == 0
    assert named["delta_lit_numeric"] == 0  # one literal either side


def test_extract_all_context_only_is_all_zero_flags_and_deltas():
    vec = engineered.extract_all(record("@@ -1,2 +1,2 @@\n a();\n b();"))
    named = dict(zip(vec.names, vec.values))
    for name in engineered.feature_names():
        if name.startswith("delta_") or named.get(name) is None:
            assert named[name] == 0
    assert all(named[f] == 0 for f in ("singleLine", "codeMove", "onlyAddition", "onlyRemoval"))


# Golden fixture: synthetic patch #7 of the seed-11 "learned" corpus.
# diff:
#   @@ -1,1 +1,2 @@ p7
#    src1 = buf1 ( idx1 , tmp1 ) ;
#   +buf0 = cur0 ( cnt0 , src0 , ptr0 , arg0 ) ; dst0 = tmp0 ( idx0 , val0 , key0 , acc0 ) ;
# Hand application of the registry rules: one added line and no removed lines
# (singleLine, onlyAddition); the buggy side has one assignment and one call;
# the patched side adds two statements, each one assignment and one call.
GOLDEN_PATCH_7 = {
    "singleLine": 1.0,
    "onlyAddition": 1.0,
    "buggy_op_assignment": 1.0,
    "buggy_calls": 1.0,
    "patched_op_assignment": 3.0,
    "patched_calls": 3.0,
    "delta_op_assignment": 2.0,
    "delta_calls": 2.0,
}


def test_synthetic_patch_7_matches_hand_computed_fixture():
    cor = synth.generate_corpus(40, 5, "learned", seed=11)
    vec = engineered.extract_all(cor.records[7])
    named = dict(zip(vec.names, vec.values))
    for name, value in named.items():
        assert value == GOLDEN_PATCH_7.get(name, 0.0), name


def test_registry_is_stable_and_complete():
    names = engineered.feature_names()
    assert len(names) == len(set(names))
    entries = engineered.registry()
    assert [e["name"] for e in entries] == names
    assert all(e["kind"] in ("flag", "count", "delta") and e["rule"] for e in entries)


def test_vector_length_and_order_stable_across_patches():
    cor = synth.generate_corpus(6, 4, "xor", seed=2)
    vectors = [engineered.extract_all(r) for r in cor.records]
    assert len({v.names for v in vectors}) == 1
    assert len({len(v.values) for v in vectors}) == 1


def test_single_line_flag_implies_one_changed_line():
    cor = synth.generate_corpus(10, 4, "none", seed=5)
    for rec in cor.records:
        hunks = diffparse.parse_diff(rec.diff_text)
        flags = engineered.extract_patterns(hunks)
        changed = sum(1 for h in hunks.hunks for t, _ in h.lines
                      if t in (diffparse.LineTag.REMOVED, diffparse.LineTag.ADDED))
        assert flags["singleLine"] == int(changed == 1)


def test_code_move_implies_nonempty_intersection():
    diffs = [
        "@@ -1,2 +1,2 @@\n-x();\n+x();\n ctx",
        "@@ -1 +1 @@\n-a();\n+b();",
        "@@ -1,2 +1,3 @@\n-x();\n+if (g) {\n+x();\n ctx",
    ]
    for diff in diffs:
        hunks = diffparse.parse_diff(diff)
        flags = engineered.extract_patterns(hunks)
        removed = {"".join(c.split()) for h in hunks.hunks for t, c in h.lines
                   if t is diffparse.LineTag.REMOVED}
        added = {"".join(c.split()) for h in hunks.hunks for t, c in h.lines
                 if t is diffparse.LineTag.ADDED}
        if flags["codeMove"]:
            assert removed & added


def test_extract_all_deterministic():
    rec = record("@@ -1,2 +1,2 @@\n-if (a > 1) { f(); }\n+if (a > 2) { f(); }\n ctx();")
    v1, v2 = engineered.extract_all(rec), engineered.extract_all(rec)
    assert np.array_equal(v1.values, v2.values)


# Line contents built from the pieces the extractor looks for: keywords
# and the brackets that follow them, operators, literals and calls, and
# whitespace runs; each group is drawn as often as the others.
_PIECES = st.one_of(
    st.sampled_from([*engineered.KEYWORDS, "true", "false", "switch", "(", ")", "{", "}"]),
    st.sampled_from(["==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "++", "--", "+", "-", "*",
                     "/", "%", "<", ">", "=", "!", "1", "2.5", "007", '"s t"', "'c'", '"',
                     "f(", "g (", "x", "a1", "_b"]),
    st.sampled_from([" ", "  ", "\t", ";", ".", ","]))
_LINE = st.lists(_PIECES, max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(" -+"), _LINE), min_size=1, max_size=10),
       hunks=st.integers(1, 3))
def test_extraction_matches_the_per_line_reference(lines, hunks):
    body = [tag + content for tag, content in lines]
    per_hunk = -(-len(body) // hunks)
    diff = "\n".join(line for a in range(0, len(body), per_hunk)
                     for line in ["@@ -1 +1 @@", *body[a:a + per_hunk]])
    try:
        expected = engineered_reference.extract_all_values(diff)
    except DiffParseError:
        with pytest.raises(DiffParseError):
            engineered.extract_all(record(diff))
        return
    hunks = diffparse.parse_diff(diff)
    fragments = diffparse.extract_fragments(hunks)
    assert engineered.extract_patterns(hunks) == engineered_reference.extract_patterns(hunks)
    assert (engineered.extract_code_description(fragments)
            == engineered_reference.extract_code_description(fragments))
    vec = engineered.extract_all(record(diff))
    assert vec.names == tuple(engineered_reference.feature_names()) == tuple(engineered.feature_names())
    # The same floats, -0.0 told from 0.0.
    assert vec.values.tobytes() == expected.tobytes()
