"""The v1 trace of a run, kept as record columns.

The slot engine hands over its records as columns, one ``Part`` per kind
of record and source.  ``SimTrace.write`` renders the v1 text's UTF-8 bytes
straight from them with numpy; ``SimTrace.events`` merges them into flat
``(slot, kind, *values)`` tuples on first read.  Both put the records in
the same order: by slot, then by the rank of their part, then in emitted
order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import BinaryIO, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = ["EVENT_FIELDS", "SimTrace"]

# Value names of each trace event kind, in v1 line order.  A record is the
# flat tuple ``(slot, kind, *values)`` of ints and strings only, which the
# cyclic garbage collector untracks after its first pass over it.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "state": ("task", "release", "event"),
    "sched": ("src", "task", "release", "hop"),
    "tx": ("sender", "receiver", "task", "release", "hop", "prio"),
    "outcome": ("sender", "task", "release", "hop", "result"),
}
_TEXT_FIELDS = frozenset({"src", "sender", "receiver", "event", "result"})  # every other value is an int
# The fixed words a run's vocabulary starts with, before its node names: a
# success flag is the id of "lost" or "delivered", a drop flag plus 2 that of
# "missed" or "dropped".
WORDS = ("lost", "delivered", "missed", "dropped", "static", "dynamic", "deferred", "collided", "no_listener")
_WINDOW_SLOTS = 8192  # slots whose records are merged or written at a time
_POWERS = 10 ** np.arange(20, dtype=np.uint64)  # no uint64 has more than 20 digits
_PAD = 0xFF  # pads every field to its block's height; no UTF-8 text holds it, surrogatepass included


class Part(NamedTuple):
    """Records of one kind as columns: their slots, ascending; the part's
    rank (0..255) among the records of one slot; each value in
    ``EVENT_FIELDS`` order, either an array with one entry per record or
    one value every record shares (a text value is a vocabulary id in an
    array and a str when shared); and, when parts share a rank, each
    record's emitted order, which breaks ties within a slot.  A part of
    mixed kinds (kind None) holds its flat records, in emitted order, as
    its values; ``write`` splits it by kind."""

    slot: np.ndarray
    rank: int
    kind: Optional[str]
    values: Union[tuple, list]
    order: Optional[np.ndarray] = None


class SimTrace:
    """A run's trace, kept as its record columns over a small per-run
    vocabulary of text values.  ``write`` renders the v1 text straight from
    the columns, so ``simulate`` builds no record tuples.  ``events``, the
    records as flat tuples ``(slot, kind, *values)`` in v1 order, is built
    on first read."""

    def __init__(self, parts: Sequence[Part], vocab: Sequence[str], horizon: int):
        self._parts = tuple(parts)
        self._vocab = tuple(vocab)
        self._horizon = horizon  # no record's slot lies past it

    @cached_property
    def events(self) -> list[tuple]:
        return _merge(self._parts, self._vocab, self._horizon)

    def write(self, fh: BinaryIO) -> None:
        """Write the v1 text form (one line per event, a lone newline for no
        event) to the binary ``fh`` as UTF-8, one write per window of
        ``_WINDOW_SLOTS`` slots."""
        _render(self._parts, self._vocab, self._horizon, fh)

    def packets_from(self, slot: int) -> dict[tuple[int, int], tuple]:
        """Per-packet outcome records for packets released at/after ``slot``
        (the post-window comparison set for resumption checks), read from
        the events: each transmitted packet maps to its ``(slot, hop,
        result)`` outcomes in order and its terminal ``(event, finish)``,
        where finish is the slot after delivery and -1 otherwise."""
        logs: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
        terminal_of: dict[tuple[int, int], tuple[str, int]] = {}
        for record in self.events:
            kind = record[1]
            if kind == "outcome":
                t, _, _, task, release, hop, result = record
                if release >= slot:
                    logs.setdefault((task, release), []).append((t, hop, result))
            elif kind == "state":
                t, _, task, release, event = record
                if release >= slot and event != "released":
                    terminal_of[(task, release)] = (event, t + 1 if event == "delivered" else -1)
        return {key: (tuple(log), terminal_of.get(key)) for key, log in logs.items()}


def _parts_of(records: list[tuple], rank: int, word_id: dict[str, int]) -> list[Part]:
    """Flat records of one rank, in emitted order, as one part per kind;
    ``word_id`` maps each text value to its vocabulary id."""
    by_kind: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_kind.setdefault(record[1], []).append(i)
    parts = []
    for kind, order in by_kind.items():
        slot, _, *columns = zip(*[records[i] for i in order])
        values = tuple(
            np.array([word_id[v] for v in column], dtype=np.intp) if name in _TEXT_FIELDS
            else np.array(column, dtype=np.int64)
            for name, column in zip(EVENT_FIELDS[kind], columns)
        )
        parts.append(Part(np.array(slot, dtype=np.int64), rank, kind, values, np.array(order, dtype=np.int64)))
    return parts


def _windows(parts: Sequence[Part], horizon: int) -> Iterator[tuple[list[tuple[int, int, int]], np.ndarray]]:
    """The windows of ``_WINDOW_SLOTS`` slots that hold records, in slot
    order: the rows ``(part index, lo, hi)`` of each part with records in
    the window, and the order that puts those rows, concatenated, into v1
    order -- by slot, then by rank, then by emitted order or, within one
    part, in the part's own order."""
    edges = np.arange(0, horizon + _WINDOW_SLOTS + 1, _WINDOW_SLOTS)  # the last window holds the horizon
    cuts = [np.searchsorted(part.slot, edges).tolist() for part in parts]
    for w, edge in enumerate(edges[:-1].tolist()):
        spans, keys = [], []
        for index, (part, cut) in enumerate(zip(parts, cuts)):
            lo, hi = cut[w], cut[w + 1]
            if lo < hi:
                spans.append((index, lo, hi))
                # 13 bits of slot in the window and 8 of rank, above 32 of emitted order.
                key = ((np.asarray(part.slot[lo:hi], dtype=np.int64) - edge) << 8 | part.rank) << 32
                keys.append(key if part.order is None else key + part.order[lo:hi])
        if spans:
            yield spans, np.argsort(np.concatenate(keys), kind="stable")


def _merge(parts: Sequence[Part], vocab: Sequence[str], horizon: int) -> list[tuple]:
    """The records of ``parts`` as flat tuples in v1 order, built and merged
    one window at a time, so no temporary spans the run.  Every slot or
    release a record names is the same int object as in any other record
    naming that number."""
    number = np.arange(horizon + 1).astype(object)
    words = np.array(vocab, dtype=object)
    events: list[tuple] = []
    for spans, order in _windows(parts, horizon):
        runs = []
        for index, lo, hi in spans:
            part = parts[index]
            if part.kind is None:
                runs.append(np.fromiter(part.values[lo:hi], dtype=object, count=hi - lo))
                continue
            columns = [number[part.slot[lo:hi]], repeat(part.kind, hi - lo)]
            for name, values in zip(EVENT_FIELDS[part.kind], part.values):
                if not isinstance(values, np.ndarray):
                    columns.append(repeat(values, hi - lo))
                elif name in _TEXT_FIELDS:
                    columns.append(words[values[lo:hi]])
                else:
                    columns.append(number[values[lo:hi]] if name == "release" else memoryview(values[lo:hi]))
            runs.append(np.fromiter(zip(*columns), dtype=object, count=hi - lo))
        events += np.concatenate(runs)[order].tolist()
    return events


def _decimal(values: np.ndarray) -> np.ndarray:
    """``str(v)`` of each int ``v`` as ASCII, in the columns of a uint8
    matrix as tall as the longest, each aligned to its bottom above ``_PAD``."""
    values = np.asarray(values, dtype=np.int64)
    negative = np.flatnonzero(values < 0)
    magnitude = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to itself, which reads as 2**63
    top = int(magnitude.max(initial=0))
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)  # narrower division, same digits
    digits = len(str(top))
    # Row j of the digits stands for 10**(digits - 1 - j); it leads a number below that power.
    leading = magnitude < _POWERS[digits - 1:0:-1, None].astype(magnitude.dtype)
    out = np.empty((digits + bool(len(negative)), len(values)), dtype=np.uint8)
    for row in range(len(out) - 1, len(out) - 1 - digits, -1):
        quotient = magnitude // 10
        out[row] = magnitude - quotient * 10
        magnitude = quotient
    out += ord("0")
    np.copyto(out[len(out) - digits:-1], _PAD, where=leading)
    if len(negative):
        out[0] = _PAD
        out[leading[:, negative].sum(axis=0), negative] = ord("-")
    return out


def _render(parts: Sequence[Part], vocab: Sequence[str], horizon: int, fh: BinaryIO) -> None:
    """Write the v1 lines of ``parts`` to ``fh`` as UTF-8, one window at a
    time.  A window's lines are filled part by part into the columns of one
    uint8 matrix, each field in a block of rows as tall as its longest entry
    and aligned to its bottom above ``_PAD``: literal text is broadcast, ints
    come from ``_decimal`` and text values are the bottom rows of the
    vocabulary's byte matrix, as many as the longest word the window's ids
    name has UTF-8 bytes.  The matrix is turned into one row per line, the
    rows are put into v1 order, and every byte but ``_PAD``, which no UTF-8
    text holds, is kept, so any text round-trips.  A trace without records
    is a lone newline."""
    encoded = [word.encode("utf-8", "surrogatepass") for word in vocab]
    word_len = np.array(list(map(len, encoded)), dtype=np.intp)
    word_bytes = np.full((word_len.max(initial=0), len(encoded)), _PAD, dtype=np.uint8)
    for column, word in zip(word_bytes.T, encoded):
        column[len(column) - len(word):] = np.frombuffer(word, dtype=np.uint8)
    word_id = {w: i for i, w in enumerate(vocab)}
    parts = [kind_part for part in parts
             for kind_part in (_parts_of(part.values, part.rank, word_id) if part.kind is None else [part])]
    layouts = [_layout(part) for part in parts]
    written = False
    for spans, order in _windows(parts, horizon):
        filled = []  # per span: its blocks of rows
        columns: dict[tuple[int, int, int], np.ndarray] = {}  # parts share some
        for index, lo, hi in spans:
            blocks = []
            for segment in layouts[index]:
                if isinstance(segment, np.ndarray):
                    blocks.append(segment[:, None])
                    continue
                values, is_text = segment
                key = (id(values), lo, hi)
                if key not in columns:
                    ids = values[lo:hi]
                    columns[key] = (word_bytes[len(word_bytes) - word_len[ids].max():, ids] if is_text
                                    else _decimal(ids))
                blocks.append(columns[key])
            filled.append(blocks)
        text = np.empty((max(sum(map(len, blocks)) for blocks in filled), len(order)), dtype=np.uint8)
        col = 0
        for (_, lo, hi), blocks in zip(spans, filled):
            cols, row = slice(col, col + hi - lo), 0
            for block in blocks:
                text[row:row + len(block), cols] = block
                row += len(block)
            text[row:, cols] = _PAD
            col += hi - lo
        lines = np.take(np.ascontiguousarray(text.T), order, axis=0).ravel()
        fh.write(lines[lines != _PAD])
        written = True
    if not written:
        fh.write(b"\n")


def _layout(part: Part) -> list:
    """The segments of a part's v1 line: literal text as a uint8 array, with
    every shared value folded in, and each column as ``(values, is_text)``."""
    segments: list = []
    literal = ""
    fields = [("slot", part.slot), ("kind", part.kind), *zip(EVENT_FIELDS[part.kind], part.values)]
    for i, (name, value) in enumerate(fields):
        literal += f"{' ' if i else ''}{name}="
        if isinstance(value, np.ndarray):
            segments += [_literal(literal), (value, name in _TEXT_FIELDS)]
            literal = ""
        else:
            literal += str(value)
    return [*segments, _literal(literal + "\n")]


def _literal(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
