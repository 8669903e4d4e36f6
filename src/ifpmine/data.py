"""Transaction databases, FIMI parsing, support counting and result rendering.

Itemsets are canonical tuples of item ids: sorted ascending, no duplicates.
Two itemsets are equal exactly when they are equal as sets, so tuples double
as hashable dictionary keys throughout the package.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

Itemset = tuple[int, ...]


class FimiParseError(ValueError):
    """Raised when a FIMI transaction file contains a malformed token."""


class InvalidThresholdError(ValueError):
    """Raised when a support threshold is outside its valid range."""


def canonical_itemset(items: Iterable[int]) -> Itemset:
    """Sort and deduplicate item ids into the canonical tuple form."""
    return tuple(sorted(set(items)))


def in_result_order(itemsets: Iterable[Itemset]) -> tuple[Itemset, ...]:
    """The itemsets in result order: by length, then lexicographically by
    item ids. Sorted on builtin keys: lexicographically, then stably by length.
    The one place the order is decided: a miner's emission order changes only
    what the sorts cost, since Timsort passes over runs already in order."""
    return tuple(sorted(sorted(itemsets), key=len))


@dataclass(frozen=True)
class TransactionDatabase:
    """An immutable ordered list of transactions over integer item ids, each
    a canonical itemset; a transaction's id is its position."""

    transactions: tuple[Itemset, ...]

    @classmethod
    def from_itemsets(cls, itemsets: Iterable[Iterable[int]]) -> "TransactionDatabase":
        """Build a database of the itemsets, in input order."""
        return cls(transactions=tuple(canonical_itemset(items) for items in itemsets))

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self.transactions)

    @cached_property
    def item_sets(self) -> tuple[frozenset[int], ...]:
        """Per-transaction frozensets, cached for repeated subset tests."""
        return tuple(frozenset(t) for t in self.transactions)


@dataclass(frozen=True)
class SupportThreshold:
    """A minimum-support requirement, absolute count or fraction of |db|."""

    kind: str  # "absolute" | "fraction"
    value: float | Fraction

    def __post_init__(self) -> None:
        if self.kind not in ("absolute", "fraction"):
            raise InvalidThresholdError(f"unknown threshold kind: {self.kind!r}")
        if self.kind == "fraction" and not 0.0 <= self.value <= 1.0:
            raise InvalidThresholdError(f"fraction must be in [0,1], got {float(self.value)}")
        if self.kind == "absolute" and (self.value < 0 or self.value != int(self.value)):
            raise InvalidThresholdError(f"absolute threshold must be a non-negative integer, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "SupportThreshold":
        """Parse ``"3"`` as an absolute count or ``"12.5%"`` as a fraction."""
        text = text.strip()
        if text.endswith("%"):
            # float() alone also takes "1_0" and non-ASCII digits.
            try:
                if not text.isascii() or "_" in text:
                    raise ValueError
                pct = float(text[:-1])
            except ValueError:
                raise InvalidThresholdError(f"bad percentage threshold: {text!r}") from None
            # Exact, unlike pct / 100 (7% of 100 would be ceil(7.000000000000001)). Values
            # outside 0-100, nan and inf stay floats, and the range check reports them.
            return cls("fraction", Fraction(repr(pct)) / 100 if 0 <= pct <= 100 else pct / 100)
        # ASCII decimal digits, as in parse_fimi: int() alone also takes "+1", "1_0"
        # and non-ASCII digits.
        if not (text.isascii() and text.isdigit()):
            raise InvalidThresholdError(f"bad threshold: {text!r}")
        try:
            return cls("absolute", int(text))
        except ValueError:  # more digits than int() converts, sys.get_int_max_str_digits()
            too_long = f"{text[:10]}... has {len(text)} digits, too many for int()"
            raise InvalidThresholdError(f"bad threshold: {too_long}") from None

    def resolve(self, num_transactions: int) -> int:
        """Absolute count for a database of the given size (ceil for fractions)."""
        if self.kind == "absolute":
            return int(self.value)
        return math.ceil(self.value * num_transactions)


def parse_fimi(text: str) -> TransactionDatabase:
    """Parse FIMI transaction text: one transaction per line, item ids of
    ASCII decimal digits separated by whitespace.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``, as in a file read in
    text mode, and the final line needs no line end. Other whitespace, such
    as form feed, vertical tab or ``\x1c``-``\x1f``, separates ids within a
    line.
    Duplicate ids within a line are collapsed; blank lines become empty
    transactions and are retained so fraction thresholds stay anchored to
    the original transaction count.
    """
    # Not text.splitlines(): it also ends lines at \v, \f and \x1c-\x1e.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last line and starts none
    itemsets: list[list[int]] = []
    for lineno, line in enumerate(lines, start=1):
        items = []
        for tok in line.split():
            # Not int(tok) alone: it also takes "+1", "1_0" and non-ASCII digits.
            if tok.isascii() and tok.isdigit():
                try:
                    items.append(int(tok))
                except ValueError:  # more digits than int() converts, sys.get_int_max_str_digits()
                    too_long = f"{tok[:10]}... has {len(tok)} digits, too many for int()"
                    raise FimiParseError(f"line {lineno}: item id {too_long}") from None
            elif tok[0] == "-" and tok[1:].isascii() and tok[1:].isdigit():
                raise FimiParseError(f"line {lineno}: negative item id {tok}")
            else:
                raise FimiParseError(f"line {lineno}: non-integer token {tok!r}")
        itemsets.append(items)
    return TransactionDatabase.from_itemsets(itemsets)


def read_fimi(path: str) -> TransactionDatabase:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse_fimi(fh.read())
        except UnicodeDecodeError as exc:
            raise FimiParseError(f"non-ASCII byte at offset {exc.start}") from None


def to_fimi(db: TransactionDatabase) -> str:
    """Render a database back to FIMI text, one newline-terminated line per
    transaction (empty transactions become empty lines)."""
    return "".join(" ".join(str(i) for i in t) + "\n" for t in db.transactions)


def support(db: TransactionDatabase, s: Iterable[int]) -> int:
    """Number of transactions containing every item of ``s``.

    The empty itemset is contained in every transaction, so its support is
    the transaction count. Items outside the universe are allowed and simply
    force a zero.
    """
    needed = frozenset(s)
    if not needed:
        return len(db)
    return sum(1 for t in db.item_sets if needed <= t)


def item_supports(db: TransactionDatabase) -> dict[int, int]:
    """Support of every 1-itemset in one pass over the database, keyed in
    the order of the items' first occurrences."""
    return dict(Counter(chain.from_iterable(db.transactions)))


def render_itemset_lines(
    entries: Iterable[tuple[Itemset, int]], labels: dict[int, str] | None = None
) -> str:
    """Text result format: one ``items (support)`` line per itemset, its
    items (or their ``labels``, an item without one as its id) joined by
    spaces; the empty itemset's line is `` (n)``.

    Callers pass entries already in canonical (length, lexicographic) order,
    so the itemset length changes rarely: each change builds one format
    string, ``%s`` per item and one for the support, and each line is one
    ``%`` on it. The labels, if given, replace the items first.
    """
    if labels is not None:
        entries = ((tuple([labels.get(i, str(i)) for i in s]), n) for s, n in entries)
    lines, k, fmt = [], -1, ""
    for s, n in entries:
        if len(s) != k:
            k = len(s)
            fmt = " ".join(["%s"] * k) + " (%s)\n"
        lines.append(fmt % (*s, n))
    return "".join(lines)


def itemsets_json(entries: Iterable[tuple[Itemset, int]]) -> str:
    """JSON result format: array of ``{"items": [...], "support": n}``."""
    payload = [{"items": list(s), "support": n} for s, n in entries]
    return json.dumps(payload, indent=2) + "\n"


class _ResultRendering:
    """``entries``, ``to_text`` and ``to_json`` of a result: its itemsets in
    result order, ``_order``, each with its support, read from ``supports``
    as the line is rendered."""

    _order: tuple[Itemset, ...]
    supports: dict[Itemset, int]

    def _entries(self) -> Iterator[tuple[Itemset, int]]:
        order = self._order
        return zip(order, map(self.supports.__getitem__, order))

    def entries(self) -> list[tuple[Itemset, int]]:
        return list(self._entries())

    def to_text(self, labels: dict[int, str] | None = None) -> str:
        return render_itemset_lines(self._entries(), labels)

    def to_json(self) -> str:
        return itemsets_json(self._entries())
