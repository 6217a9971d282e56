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
from typing import Iterable, Sequence

MAX_AS_NUMBER = 2**32 - 1


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
        try:
            asn = int(tok)
        except ValueError:
            raise ParseError(f"non-numeric AS number {tok!r}", source, lineno) from None
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


def _parse_into(corpus: PathCorpus, lines: Iterable[str], source: str) -> None:
    """Append one stream's paths to `corpus`, interning ids in first-seen order.

    A path whose loop survives padding compression is dropped before
    interning, so it registers none of its ASes or labels.
    """
    collector_ids = {label: k for k, label in enumerate(corpus.collector_labels)}
    period_ids = {label: t for t, label in enumerate(corpus.period_labels)}
    intern = corpus.registry.intern
    for lineno, line in enumerate(lines, start=1):
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
        nodes = _compress_padding(_parse_as_field(fields[2], source, lineno))
        if len(set(nodes)) != len(nodes):
            corpus.dropped_loops += 1
            continue
        corpus.records.append(
            PathRecord(
                collector_id=_intern_label(collector, collector_ids, corpus.collector_labels),
                time_period=_intern_label(period, period_ids, corpus.period_labels),
                nodes=tuple(map(intern, nodes)),
            )
        )


def _nonempty(corpus: PathCorpus, sources: Sequence[str]) -> PathCorpus:
    if corpus.n_path_lines == 0:
        raise ParseError(f"no path records in input ({', '.join(sources) or '<none>'})")
    return corpus


def parse_paths_file(stream: Iterable[str] | str, source: str = "<stream>") -> PathCorpus:
    """Parse a single canonical paths stream into a corpus."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    corpus = PathCorpus()
    _parse_into(corpus, stream, source)
    return _nonempty(corpus, [source])


def load_corpus(paths: Sequence[str | Path]) -> PathCorpus:
    """Parse several paths files, in the order given, into one corpus."""
    sources = [str(Path(p)) for p in paths]
    corpus = PathCorpus()
    for source in sources:
        with open(source, encoding="utf-8") as fh:
            _parse_into(corpus, fh, source)
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
