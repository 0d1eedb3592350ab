"""Finite magmas and exhaustive structure analysis.

A magma here is a finite carrier with a total binary operation given as a
Cayley table (rows indexed by the left operand).  Three tables are built
in:

* ``z2``: the two-element group on {S, C} (S the identity);
* ``prefer_standard``: the four-element table that steers composites toward
  the standard structure; its carrier is the four transition labels
  (a,b), (ab,.), (.,ab), (b,a) printed with a middle dot;
* ``prefer_exotic``: the mirror table steering toward the exotic structure.

The tables are data, reproduced cell for cell; the analyzer reports what
they actually satisfy.  In particular ``prefer_standard`` has exactly one
commuting failure, the pair {(a,b), (b,a)}, and the analyzer surfaces it
rather than repairing it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import DomainError, parse_json

# the most labels analyze takes: it holds each table row as bytes, one
# entry per byte
MAX_CARRIER = 256

# Carrier labels use the unicode middle dot; an ASCII period is accepted on
# input and normalized.
DOT = "·"

_PREFERENCE_CARRIER = ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)")

_Z2_ROWS = (
    ("S", "C"),
    ("C", "S"),
)

_PREFER_STANDARD_ROWS = (
    ("(a,b)", f"(ab,{DOT})", "(a,b)", "(b,a)"),
    (f"(ab,{DOT})", f"(ab,{DOT})", f"(ab,{DOT})", f"(ab,{DOT})"),
    ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)"),
    (f"(ab,{DOT})", f"(ab,{DOT})", "(b,a)", "(a,b)"),
)

_PREFER_EXOTIC_ROWS = (
    ("(a,b)", "(a,b)", f"({DOT},ab)", f"({DOT},ab)"),
    ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)"),
    (f"({DOT},ab)", f"({DOT},ab)", f"({DOT},ab)", f"({DOT},ab)"),
    (f"({DOT},ab)", "(b,a)", f"({DOT},ab)", "(a,b)"),
)

_BUILTINS = {
    "z2": (("S", "C"), _Z2_ROWS),
    "prefer_standard": (_PREFERENCE_CARRIER, _PREFER_STANDARD_ROWS),
    "prefer_exotic": (_PREFERENCE_CARRIER, _PREFER_EXOTIC_ROWS),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def normalize_label(label: str) -> str:
    """Accept ASCII '.' in place of the middle dot in carrier labels."""
    return label.replace(".", DOT) if "ab" in label else label


@dataclass(frozen=True)
class FiniteMagma:
    name: str
    carrier: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.carrier)
        if n == 0:
            raise DomainError("carrier must be non-empty")
        if not all(isinstance(label, str) for label in self.carrier):
            raise DomainError("carrier labels must be strings")
        if len(set(self.carrier)) != n:
            raise DomainError("carrier labels must be distinct")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise DomainError("table must be square over the carrier")
        for row in self.table:
            for entry in row:
                # an int, not a bool or a float that would truncate to one
                if type(entry) is not int:
                    raise DomainError("table entries must be integers")
                if not (0 <= entry < n):
                    raise DomainError("table entries must index the carrier")

    def index(self, label: str) -> int:
        if label in self.carrier:
            return self.carrier.index(label)
        normalized = normalize_label(label)
        if normalized in self.carrier:
            return self.carrier.index(normalized)
        raise DomainError(f"{label!r} is not in the carrier of {self.name!r}")


@dataclass(frozen=True)
class StructureReport:
    identities: tuple[str, ...]
    absorbers: tuple[str, ...]
    commutativity_violations: tuple[tuple[str, str], ...]
    associativity_violations: int
    associativity_witness: tuple[str, str, str] | None
    is_group: bool


def _rows_to_table(carrier: tuple[str, ...], rows) -> tuple[tuple[int, ...], ...]:
    index = {label: i for i, label in enumerate(carrier)}
    return tuple(tuple(index[entry] for entry in row) for row in rows)


def builtin(name: str) -> FiniteMagma:
    if name not in _BUILTINS:
        raise DomainError(f"unknown builtin table {name!r}")
    carrier, rows = _BUILTINS[name]
    return FiniteMagma(name, carrier, _rows_to_table(carrier, rows))


def compose(magma: FiniteMagma, left: str, right: str) -> str:
    """Table lookup: row is the left operand, column the right."""
    return magma.carrier[magma.table[magma.index(left)][magma.index(right)]]


def analyze(magma: FiniteMagma) -> StructureReport:
    """Exhaustive scan for identities, absorbers, commutativity and associativity.

    Commutativity violations are unordered pairs, each reported once in
    carrier order.  The associativity witness is the first failing triple in
    carrier (row-major) order.  is_group requires exactly one identity, no
    associativity failures, and a two-sided inverse for every element.  A
    carrier of more than MAX_CARRIER labels is a DomainError.
    """
    n = len(magma.carrier)
    if n > MAX_CARRIER:
        raise DomainError(f"analyze takes at most {MAX_CARRIER} labels, got {n}")
    table = magma.table

    identities = tuple(
        magma.carrier[e]
        for e in range(n)
        if all(table[e][x] == x and table[x][e] == x for x in range(n))
    )
    absorbers = tuple(
        magma.carrier[z]
        for z in range(n)
        if all(table[z][x] == z and table[x][z] == z for x in range(n))
    )

    violations = tuple(
        (magma.carrier[x], magma.carrier[y])
        for x, y in itertools.combinations(range(n), 2)
        if table[x][y] != table[y][x]
    )

    # one n x n block per x, row-major over (y, z): (xy)z is the rows named
    # by row x laid end to end, and x(yz) is the whole table with each entry
    # mapped through row x.  Where they differ, their XOR taken as big-endian
    # ints has a non-zero byte per mismatch, the first in its highest set bit.
    assoc_count = 0
    witness: tuple[str, str, str] | None = None
    rows = [bytes(row) for row in table]
    flat = b"".join(rows)
    padding = bytes(256 - n)  # translate maps all 256 byte values
    for x, row_x in enumerate(rows):
        left = b"".join(map(rows.__getitem__, row_x))
        right = flat.translate(row_x + padding)
        if left == right:
            continue
        diff = int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
        assoc_count += n * n - diff.to_bytes(n * n, "big").count(0)
        if witness is None:
            y, z = divmod(n * n - 1 - (diff.bit_length() - 1) // 8, n)
            witness = (magma.carrier[x], magma.carrier[y], magma.carrier[z])

    is_group = False
    if len(identities) == 1 and assoc_count == 0:
        e = magma.index(identities[0])
        is_group = all(
            any(table[x][y] == e and table[y][x] == e for y in range(n))
            for x in range(n)
        )

    return StructureReport(
        identities=identities,
        absorbers=absorbers,
        commutativity_violations=violations,
        associativity_violations=assoc_count,
        associativity_witness=witness,
        is_group=is_group,
    )


def to_json(magma: FiniteMagma) -> str:
    payload = {
        "name": magma.name,
        "carrier": list(magma.carrier),
        "table": [list(row) for row in magma.table],
    }
    return json.dumps(payload, ensure_ascii=False)


def from_json(text: str, name: str = "custom") -> FiniteMagma:
    """Load a magma from {"carrier": [...], "table": [[...]]} JSON, taking values as typed."""
    payload = parse_json(text, "magma")
    if not isinstance(payload, dict) or "carrier" not in payload or "table" not in payload:
        raise DomainError("magma JSON needs 'carrier' and 'table' keys")
    name = payload.get("name", name)
    if not isinstance(name, str):
        raise DomainError("magma name must be a string")
    carrier, rows = payload["carrier"], payload["table"]
    if not isinstance(carrier, list):
        raise DomainError("magma carrier must be a list of labels")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DomainError("magma table must be a matrix of carrier indices")
    return FiniteMagma(name, tuple(carrier), tuple(map(tuple, rows)))
