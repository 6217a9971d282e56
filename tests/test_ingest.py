"""Parsing of the canonical paths format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrecon import ParseError, load_corpus, parse_paths_file, write_paths_file
from asrecon.ingest import format_record


def test_single_path_line():
    corpus = parse_paths_file("rc0\t0\t7018 3356 1299\n")
    assert len(corpus.records) == 1
    record = corpus.records[0]
    assert len(record.nodes) == 3
    as_path = [corpus.registry.as_of(n) for n in record.nodes]
    assert as_path == [7018, 3356, 1299]
    assert corpus.collector_labels == ["rc0"]
    assert corpus.period_labels == ["0"]


def test_padding_compressed():
    corpus = parse_paths_file("rc0\t0\t7018 7018 3356\n")
    as_path = [corpus.registry.as_of(n) for n in corpus.records[0].nodes]
    assert as_path == [7018, 3356]


def test_loop_path_dropped_and_counted():
    corpus = parse_paths_file("rc0\t0\t1 2 1\nrc0\t0\t1 2\n")
    assert corpus.dropped_loops == 1
    assert len(corpus.records) == 1
    assert corpus.n_path_lines == 2


def test_dropped_loop_registers_nothing():
    corpus = parse_paths_file("lc\tlp\t5 6 5\nrc0\t0\t1 2\nrc1\t1\t7 8 9 7\n")
    assert corpus.dropped_loops == 2
    assert corpus.collector_labels == ["rc0"]
    assert corpus.period_labels == ["0"]
    assert corpus.registry.id_to_as_number == [1, 2]


def test_records_plus_drops_account_for_every_line():
    text = "# header\nrc0\t0\t1 2\nrc1\t0\t3 4 3\n\nrc0\t1\t5 6\n"
    corpus = parse_paths_file(text)
    assert len(corpus.records) + corpus.dropped_loops == corpus.n_path_lines == 3


def test_registry_is_dense_and_bijective(micro_corpus):
    registry = micro_corpus.registry
    n = registry.n_nodes
    assert n == 8
    assert sorted(registry.id_to_as_number) == [1, 2, 3, 4, 5, 6, 101, 102]
    for node in range(n):
        assert registry.id_of(registry.as_of(node)) == node


def test_first_seen_indexing():
    text = "late\tp1\t1 2\nearly\tp0\t2 3\nlate\tp0\t1 3\n"
    corpus = parse_paths_file(text)
    assert corpus.collector_labels == ["late", "early"]
    assert corpus.period_labels == ["p1", "p0"]
    assert corpus.records[0].collector_id == 0
    assert corpus.records[1].collector_id == 1
    assert corpus.records[2].time_period == 1


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("rc0\t0\n", "3 tab-separated fields"),
        ("rc0\t0\t1 2\textra\n", "3 tab-separated fields"),
        ("rc0\t0\tfoo 2\n", "non-numeric"),
        ("rc0\t0\t1_000 2\n", "non-numeric"),
        ("rc0\t0\t+5 2\n", "non-numeric"),
        ("rc0\t0\t\u0661\u0662 2\n", "non-numeric"),  # Arabic-Indic digits
        ("rc0\t0\t-3 2\n", "32-bit"),
        ("rc0\t0\t99999999999 2\n", "32-bit"),
        ("rc0\t0\t\n", "empty AS path"),
        ("\t0\t1 2\n", "empty collector"),
        ("rc0\t\t1 2\n", "empty period"),
    ],
)
def test_malformed_lines_raise_with_line_number(line, fragment):
    text = "# fine\nrc0\t0\t1 2\n" + line
    with pytest.raises(ParseError) as err:
        parse_paths_file(text, source="bad.txt")
    assert fragment in str(err.value)
    assert "bad.txt:3" in str(err.value)


@pytest.mark.parametrize(
    "text, where, fragment",
    [
        ("rc0\t0\t1 2\nrc0\t0\tx 2\nrc0\t0\t1 2\nrc0\t0\tx 2\n", "bad.txt:2", "non-numeric"),
        # The AS field is valid and seen before; the label is still checked.
        ("rc0\t0\t1 2\n\t0\t1 2\n\t0\t1 2\n", "bad.txt:2", "empty collector"),
        # Equal to a good line once stripped, but the raw line has 4 fields.
        ("rc0\t0\t1 2\nrc0\t0\t1 2\t\n", "bad.txt:2", "3 tab-separated"),
    ],
)
def test_repeated_malformed_line_reports_first_occurrence(text, where, fragment):
    with pytest.raises(ParseError) as err:
        parse_paths_file(text, source="bad.txt")
    assert f"{where}: " in str(err.value) and fragment in str(err.value)


def test_repeated_loop_line_counted_each_time():
    corpus = parse_paths_file("rc0\t0\t1 2 1\nrc0\t0\t3 4\nrc0\t0\t1 2 1\nrc1\t0\t1 2 1\n")
    assert corpus.dropped_loops == 3
    assert corpus.n_path_lines == 4
    assert corpus.collector_labels == ["rc0"]
    assert corpus.registry.id_to_as_number == [3, 4]


def test_empty_input_rejected():
    with pytest.raises(ParseError, match="no path records"):
        parse_paths_file("# only comments\n\n")


def test_parse_is_deterministic(micro_corpus):
    from tests.conftest import MICRO_PATHS

    again = parse_paths_file(MICRO_PATHS)
    assert again.collector_labels == micro_corpus.collector_labels
    assert again.period_labels == micro_corpus.period_labels
    assert again.records == micro_corpus.records
    assert again.registry.id_to_as_number == micro_corpus.registry.id_to_as_number


def test_round_trip(tmp_path, micro_corpus):
    out = tmp_path / "roundtrip.txt"
    write_paths_file(micro_corpus, out, header_lines=["round trip"])
    reparsed = load_corpus([out])
    assert reparsed.records == micro_corpus.records
    assert reparsed.registry.id_to_as_number == micro_corpus.registry.id_to_as_number
    assert reparsed.collector_labels == micro_corpus.collector_labels


def test_multi_file_merge_matches_single_stream(tmp_path):
    text_a = "c0\tp0\t1 2 3\nc1\tp0\t4 5\n"
    text_b = "c0\tp1\t1 2\nc2\tp0\t6 1\n"
    (tmp_path / "a.txt").write_text(text_a)
    (tmp_path / "b.txt").write_text(text_b)
    merged = load_corpus([tmp_path / "a.txt", tmp_path / "b.txt"])
    single = parse_paths_file(text_a + text_b)
    assert merged.records == single.records
    assert merged.collector_labels == single.collector_labels
    assert merged.registry.id_to_as_number == single.registry.id_to_as_number


def test_files_share_one_registry(tmp_path):
    (tmp_path / "a.txt").write_text("c0\tp0\t1 2\n")
    (tmp_path / "b.txt").write_text("c1\tp0\t2 3\n")
    corpus = load_corpus([tmp_path / "a.txt", tmp_path / "b.txt"])
    assert corpus.collector_labels == ["c0", "c1"]
    assert corpus.registry.id_to_as_number == [1, 2, 3]


as_numbers = st.integers(min_value=0, max_value=2**32 - 1)
paths = st.lists(as_numbers, min_size=1, max_size=8)
labels = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(labels, labels, paths), min_size=1, max_size=12))
def test_round_trip_property(tmp_path_factory, entries):
    lines = []
    for collector, period, as_path in entries:
        lines.append(f"{collector}\t{period}\t" + " ".join(str(a) for a in as_path))
    corpus = parse_paths_file("\n".join(lines) + "\n")
    rendered = "\n".join(format_record(corpus, r) for r in corpus.records)
    if not corpus.records:
        return
    reparsed = parse_paths_file(rendered + "\n")
    assert reparsed.records == corpus.records
    assert reparsed.registry.id_to_as_number == corpus.registry.id_to_as_number
    assert len(corpus.records) + corpus.dropped_loops == corpus.n_path_lines


# Lines repeat, AS fields repeat under other labels, and padding, spaces and
# loops vary, so the parser's memos are hit in every state they can be in.
MEMO_POOL = [
    "c0\tp0\t1 2 3\n",
    "c1\tp0\t1 2 3\n",
    "c0\tp1\t1 2 3\n",
    "c0\tp0\t1 1 2 3\n",
    " c2 \tp0\t1 2 2 3 \n",
    "c1\tp1\t4 5 4\n",
    "c3\tp3\t4 5 4\n",
    "c3\tp3\t4 5 5 4\n",
    "c0\tp0\t6 7\n",
    "c2\tp2\t7 6 6\n",
    "c1\tp0\t8 8\n",
    "  # comment\n",
    "\n",
]


def _line_by_line(lines: list[str]):
    """The corpus fields, computed one line at a time with no memo."""
    rendered, ases, collectors, periods = [], [], [], []
    loops = path_lines = 0
    for line in lines:
        if not line.strip() or line.strip().startswith("#"):
            continue
        path_lines += 1
        collector, period, field_text = (f.strip() for f in line.split("\t"))
        path = [int(t) for t in field_text.split()]
        path = [a for i, a in enumerate(path) if i == 0 or a != path[i - 1]]
        if len(set(path)) != len(path):
            loops += 1
            continue
        for seen, items in ((collectors, [collector]), (periods, [period]), (ases, path)):
            for item in items:
                if item not in seen:
                    seen.append(item)
        rendered.append(f"{collector}\t{period}\t" + " ".join(map(str, path)))
    return rendered, ases, collectors, periods, loops, path_lines


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(MEMO_POOL), max_size=25),
    st.lists(st.sampled_from(MEMO_POOL), max_size=25),
)
def test_memoised_parse_matches_line_by_line(tmp_path_factory, lines_a, lines_b):
    tmp = tmp_path_factory.mktemp("memo")
    (tmp / "a.txt").write_text("".join(lines_a))
    (tmp / "b.txt").write_text("".join(lines_b))
    rendered, ases, collectors, periods, loops, path_lines = _line_by_line(lines_a + lines_b)
    if path_lines == 0:
        with pytest.raises(ParseError, match="no path records"):
            load_corpus([tmp / "a.txt", tmp / "b.txt"])
        return
    corpus = load_corpus([tmp / "a.txt", tmp / "b.txt"])
    assert [format_record(corpus, r) for r in corpus.records] == rendered
    assert corpus.registry.id_to_as_number == ases
    assert corpus.collector_labels == collectors
    assert corpus.period_labels == periods
    assert corpus.dropped_loops == loops
    assert corpus.n_path_lines == path_lines
