import pytest
from hypothesis import given, strategies as st

from patchpred import diffparse
from patchpred.diffparse import Hunk, HunkSet, LineTag
from patchpred.errors import DiffParseError

ONE_HUNK = "\n".join([
    "@@ -1,3 +1,3 @@",
    " int a = 0;",
    "-a = a + 1;",
    "+a = a + 2;",
    " return a;",
])


def test_parse_tags_by_prefix():
    hs = diffparse.parse_diff(ONE_HUNK)
    assert len(hs.hunks) == 1
    tags = [tag for tag, _ in hs.hunks[0].lines]
    assert tags == [LineTag.CONTEXT, LineTag.REMOVED, LineTag.ADDED, LineTag.CONTEXT]
    assert hs.hunks[0].lines[1][1] == "a = a + 1;"


def test_two_hunks_preserve_order():
    diff = "@@ -1 +1 @@\n-x\n+y\n@@ -9 +9 @@\n-p\n+q"
    hs = diffparse.parse_diff(diff)
    assert [h.header for h in hs.hunks] == ["@@ -1 +1 @@", "@@ -9 +9 @@"]
    assert hs.hunks[0].lines[0][1] == "x"
    assert hs.hunks[1].lines[0][1] == "p"


def test_no_hunk_header_is_an_error():
    with pytest.raises(DiffParseError, match="@@"):
        diffparse.parse_diff("- minus\n+ plus\n")


def test_unknown_body_prefix_names_the_line():
    with pytest.raises(DiffParseError, match="line 3"):
        diffparse.parse_diff("@@ -1 +1 @@\n-x\n*bogus\n")


def test_file_headers_excluded_from_bodies():
    diff = "\n".join([
        "diff --git a/F.java b/F.java",
        "index 123..456 100644",
        "--- a/F.java",
        "+++ b/F.java",
        "@@ -1,2 +1,2 @@",
        " ctx",
        "-old",
        "+new",
    ])
    hs = diffparse.parse_diff(diff)
    contents = [c for h in hs.hunks for _t, c in h.lines]
    assert contents == ["ctx", "old", "new"]


@pytest.mark.parametrize("diff, line", [
    ("@@ -1 +1 @@\n-x\n+y\ndiff --git a/G.java b/G.java\n@@ -1 +1 @@\n-p\n+q", 4),
    # Without `diff ` lines, B's headers would read as a removed and an added line.
    ("--- a/A.java\n+++ b/A.java\n@@ -1 +1 @@\n-x\n+y\n--- a/B.java\n+++ b/B.java\n@@ -1 +1 @@\n-p\n+q", 6),
], ids=["diff-line", "file-headers"])
def test_second_file_section_rejected(diff, line):
    with pytest.raises(DiffParseError, match=f"line {line}: multi-file diff not supported"):
        diffparse.parse_diff(diff)


def test_body_lines_like_file_headers_without_a_hunk_after_them_are_code():
    hs = diffparse.parse_diff("@@ -1 +1 @@\n--- x\n+++ y\n ctx")
    assert hs.hunks[0].lines == ((LineTag.REMOVED, "-- x"), (LineTag.ADDED, "++ y"), (LineTag.CONTEXT, "ctx"))


def test_extract_fragments_keeps_removed_added_and_context():
    frag = diffparse.extract_fragments(diffparse.parse_diff(ONE_HUNK))
    assert frag.buggy_text == "int a = 0; a = a + 1; return a;"
    assert frag.patched_text == "int a = 0; a = a + 2; return a;"


def test_all_context_hunk_gives_identical_fragments():
    frag = diffparse.fragments_for_diff("@@ -1,2 +1,2 @@\n foo();\n bar();")
    assert frag.buggy_text == frag.patched_text == "foo(); bar();"


def test_pure_insertion_gives_empty_buggy_side():
    frag = diffparse.fragments_for_diff("@@ -0,0 +1 @@\n+x();")
    assert frag.buggy_text == ""
    assert frag.buggy_tokens == ()
    assert frag.patched_text == "x();"


def test_fragments_keep_diff_order_across_hunks():
    diff = "@@ -1 +1 @@\n-first()\n+FIRST()\n@@ -5 +5 @@\n-second()\n+SECOND()"
    frag = diffparse.fragments_for_diff(diff)
    assert frag.buggy_text == "first() second()"
    assert frag.patched_text == "FIRST() SECOND()"


def test_prefix_strip_then_whitespace_collapse():
    frag = diffparse.fragments_for_diff("@@ -1 +1 @@\n-    if (a   >  b)\n+    if (a >= b)")
    assert frag.buggy_text == "if (a > b)"
    assert frag.patched_text == "if (a >= b)"


def test_fragments_never_contain_metadata():
    diff = "--- a/F\n+++ b/F\n@@ -1 +1 @@\n-x\n+y\n\\ No newline at end of file"
    frag = diffparse.fragments_for_diff(diff)
    assert "---" not in frag.buggy_text and "@@" not in frag.buggy_text
    assert "No newline" not in frag.patched_text


def test_parse_gives_each_hunk_its_header_and_tagged_lines():
    assert diffparse.parse_diff(ONE_HUNK) == HunkSet((Hunk("@@ -1,3 +1,3 @@", (
        (LineTag.CONTEXT, "int a = 0;"), (LineTag.REMOVED, "a = a + 1;"),
        (LineTag.ADDED, "a = a + 2;"), (LineTag.CONTEXT, "return a;"))),))
    assert diffparse.parse_diff("@@ -1 +1 @@\n-x\n+y\n@@ -3 +3 @@\n ctx\n+z") == HunkSet((
        Hunk("@@ -1 +1 @@", ((LineTag.REMOVED, "x"), (LineTag.ADDED, "y"))),
        Hunk("@@ -3 +3 @@", ((LineTag.CONTEXT, "ctx"), (LineTag.ADDED, "z")))))


@given(st.lists(
    st.tuples(st.sampled_from(" -+"), st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=20)),
    min_size=1, max_size=12,
))
def test_parse_tags_every_body_line_by_its_prefix_property(lines):
    diff = "@@ -1 +1 @@\n" + "\n".join(prefix + body for prefix, body in lines)
    assert diffparse.parse_diff(diff) == HunkSet((
        Hunk("@@ -1 +1 @@", tuple((LineTag(prefix), body) for prefix, body in lines)),))


def test_tokenize_examples():
    assert diffparse.tokenize("a = a + 2;") == ["a", "=", "a", "+", "2", ";"]
    assert diffparse.tokenize("") == []
    assert diffparse.tokenize("if (x)") == ["if", "(", "x", ")"]


def test_tokenize_keeps_identifiers_and_numbers_whole():
    assert diffparse.tokenize("foo_bar2(3.14, baz)") == ["foo_bar2", "(", "3.14", ",", "baz", ")"]


@given(st.text(max_size=80))
def test_tokenize_deterministic_and_whitespace_free(text):
    tokens = diffparse.tokenize(text)
    assert tokens == diffparse.tokenize(text)
    assert all(tok and not tok.isspace() for tok in tokens)
