"""Parsing of canonical path-snapshot files.

The canonical format is line oriented UTF-8 text: `#` starts a comment line,
every other line is `collector_label<TAB>period_label<TAB>as1 as2 as3 ...`
with AS numbers as decimal integers. One file may contain any number of
collectors and time periods.

Parsing interns AS numbers to dense node ids and assigns collectors and
periods dense indices in first-seen order. Consecutive duplicate ASes on a
path (path padding) are collapsed; paths that still contain a repeated AS
afterwards are rejected and tallied as loops.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

MAX_AS_NUMBER = 2**32 - 1
_UNSEEN = object()  # memo miss; None is a memoised loop


class ParseError(ValueError):
    """Malformed input in a paths file."""

    def __init__(self, message: str, source: str = "<stream>", line: int | None = None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


@dataclass
class AsRegistry:
    """Bijection between 32-bit AS numbers and dense node ids 0..N-1."""

    as_number_to_id: dict[int, int] = field(default_factory=dict)
    id_to_as_number: list[int] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.id_to_as_number)

    def intern(self, as_number: int) -> int:
        node = self.as_number_to_id.get(as_number)
        if node is None:
            node = len(self.id_to_as_number)
            self.as_number_to_id[as_number] = node
            self.id_to_as_number.append(as_number)
        return node

    def id_of(self, as_number: int) -> int:
        return self.as_number_to_id[as_number]

    def as_of(self, node_id: int) -> int:
        return self.id_to_as_number[node_id]

    def __contains__(self, as_number: int) -> bool:
        return as_number in self.as_number_to_id

    def __len__(self) -> int:
        return len(self.id_to_as_number)


@dataclass(frozen=True)
class PathRecord:
    """One advertised path: dense node ids, already padding-compressed."""

    collector_id: int
    time_period: int
    nodes: tuple[int, ...]


@dataclass
class PathCorpus:
    """All parsed records plus the registries they are indexed against."""

    registry: AsRegistry = field(default_factory=AsRegistry)
    records: list[PathRecord] = field(default_factory=list)
    collector_labels: list[str] = field(default_factory=list)
    period_labels: list[str] = field(default_factory=list)
    dropped_loops: int = 0
    n_path_lines: int = 0

    @property
    def n_collectors(self) -> int:
        return len(self.collector_labels)

    @property
    def n_periods(self) -> int:
        return len(self.period_labels)


def _parse_as_field(field_text: str, source: str, lineno: int) -> tuple[int, ...]:
    tokens = field_text.split()
    if not tokens:
        raise ParseError("empty AS path", source, lineno)
    numbers = []
    for tok in tokens:
        # int() alone would also take "+5", "1_000" and non-ASCII digits.
        digits = tok[1:] if tok.startswith("-") else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"non-numeric AS number {tok!r}", source, lineno)
        asn = int(tok)
        if asn < 0 or asn > MAX_AS_NUMBER:
            raise ParseError(f"AS number {asn} outside 32-bit range", source, lineno)
        numbers.append(asn)
    return tuple(numbers)


def _compress_padding(nodes: Sequence[int]) -> tuple[int, ...]:
    out = [nodes[0]]
    for n in nodes[1:]:
        if n != out[-1]:
            out.append(n)
    return tuple(out)


def _intern_label(label: str, ids: dict[str, int], labels: list[str]) -> int:
    k = ids.get(label)
    if k is None:
        k = ids[label] = len(labels)
        labels.append(label)
    return k


def _parse_into(corpus: PathCorpus, streams: Iterable[tuple[Iterable[str], str]]) -> None:
    """Append every `(lines, source)` stream's paths to `corpus`, in order.

    Ids are interned in first-seen order. A path whose loop survives padding
    compression is dropped before interning, so it registers none of its
    ASes or labels. Route tables repeat one path once per prefix, so a line
    seen before reuses its record (or its drop), and an AS field seen before
    reuses its node tuple; only lines that passed every check are memoised,
    so a bad line always raises at its first occurrence.
    """
    collector_ids: dict[str, int] = {}
    period_ids: dict[str, int] = {}
    line_memo: dict[str, PathRecord | None] = {}
    field_memo: dict[str, tuple[int, ...] | None] = {}
    intern = corpus.registry.intern
    for lines, source in streams:
        for lineno, line in enumerate(lines, start=1):
            record = line_memo.get(line, _UNSEEN)
            if record is not _UNSEEN:
                corpus.n_path_lines += 1
                if record is None:
                    corpus.dropped_loops += 1
                else:
                    corpus.records.append(record)
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            corpus.n_path_lines += 1
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(fields)}", source, lineno
                )
            collector = fields[0].strip()
            period = fields[1].strip()
            if not collector:
                raise ParseError("empty collector label", source, lineno)
            if not period:
                raise ParseError("empty period label", source, lineno)
            nodes = field_memo.get(fields[2], _UNSEEN)
            if nodes is _UNSEEN:
                as_path = _compress_padding(_parse_as_field(fields[2], source, lineno))
                looped = len(set(as_path)) != len(as_path)
                nodes = field_memo[fields[2]] = None if looped else tuple(map(intern, as_path))
            if nodes is None:
                line_memo[line] = None
                corpus.dropped_loops += 1
                continue
            record = line_memo[line] = PathRecord(
                collector_id=_intern_label(collector, collector_ids, corpus.collector_labels),
                time_period=_intern_label(period, period_ids, corpus.period_labels),
                nodes=nodes,
            )
            corpus.records.append(record)


def _nonempty(corpus: PathCorpus, sources: Sequence[str]) -> PathCorpus:
    if corpus.n_path_lines == 0:
        raise ParseError(f"no path records in input ({', '.join(sources) or '<none>'})")
    return corpus


def parse_paths_file(stream: Iterable[str] | str, source: str = "<stream>") -> PathCorpus:
    """Parse a single canonical paths stream into a corpus."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    corpus = PathCorpus()
    _parse_into(corpus, [(stream, source)])
    return _nonempty(corpus, [source])


def _open_in_order(sources: Sequence[str]) -> Iterator[tuple[Iterable[str], str]]:
    for source in sources:
        with open(source, encoding="utf-8") as fh:
            yield fh, source


def load_corpus(paths: Sequence[str | Path]) -> PathCorpus:
    """Parse several paths files, in the order given, into one corpus."""
    sources = [str(Path(p)) for p in paths]
    corpus = PathCorpus()
    _parse_into(corpus, _open_in_order(sources))
    return _nonempty(corpus, sources)


def format_record(corpus: PathCorpus, record: PathRecord) -> str:
    """Render one record back into the canonical line format."""
    path = " ".join(str(corpus.registry.as_of(n)) for n in record.nodes)
    return (
        f"{corpus.collector_labels[record.collector_id]}\t"
        f"{corpus.period_labels[record.time_period]}\t{path}"
    )


def write_paths_file(corpus: PathCorpus, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Serialize a corpus back to the canonical paths format."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line if line.startswith("#") else f"# {line}")
            fh.write("\n")
        for record in corpus.records:
            fh.write(format_record(corpus, record) + "\n")
