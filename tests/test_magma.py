"""Cell-for-cell checks of the built-in tables plus an independent analyzer.

The expected tables are transcribed here a second time, by hand, so a typo
in the package data cannot silently agree with itself.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.errors import DomainError
from spinorlab.magma import (
    MAX_CARRIER,
    FiniteMagma,
    analyze,
    builtin,
    compose,
    from_json,
    normalize_label,
    to_json,
)

AB = "(a,b)"
ABDOT = "(ab,·)"
DOTAB = "(·,ab)"
BA = "(b,a)"

EXPECTED_Z2 = {
    ("S", "S"): "S",
    ("S", "C"): "C",
    ("C", "S"): "C",
    ("C", "C"): "S",
}

EXPECTED_PREFER_STANDARD = [
    [AB, ABDOT, AB, BA],
    [ABDOT, ABDOT, ABDOT, ABDOT],
    [AB, ABDOT, DOTAB, BA],
    [ABDOT, ABDOT, BA, AB],
]

EXPECTED_PREFER_EXOTIC = [
    [AB, AB, DOTAB, DOTAB],
    [AB, ABDOT, DOTAB, BA],
    [DOTAB, DOTAB, DOTAB, DOTAB],
    [DOTAB, BA, DOTAB, AB],
]

CARRIER4 = (AB, ABDOT, DOTAB, BA)


def test_z2_every_cell():
    table = builtin("z2")
    assert table.carrier == ("S", "C")
    for (left, right), expected in EXPECTED_Z2.items():
        assert compose(table, left, right) == expected


def _assert_cells(magma, expected):
    assert magma.carrier == CARRIER4
    for i, left in enumerate(CARRIER4):
        for j, right in enumerate(CARRIER4):
            assert compose(magma, left, right) == expected[i][j]


def test_prefer_standard_every_cell():
    _assert_cells(builtin("prefer_standard"), EXPECTED_PREFER_STANDARD)


def test_prefer_exotic_every_cell():
    _assert_cells(builtin("prefer_exotic"), EXPECTED_PREFER_EXOTIC)


def test_builtin_rejects_unknown_name():
    with pytest.raises(DomainError):
        builtin("prefer_nothing")


def _brute_force(magma):
    """Independent re-derivation of every report field by raw enumeration."""
    labels = magma.carrier
    op = {(a, b): compose(magma, a, b) for a in labels for b in labels}
    identities = [
        e for e in labels if all(op[e, x] == x and op[x, e] == x for x in labels)
    ]
    absorbers = [
        z for z in labels if all(op[z, x] == z and op[x, z] == z for x in labels)
    ]
    commut = [
        (a, b)
        for a, b in itertools.combinations(labels, 2)
        if op[a, b] != op[b, a]
    ]
    assoc = [
        (a, b, c)
        for a, b, c in itertools.product(labels, repeat=3)
        if op[op[a, b], c] != op[a, op[b, c]]
    ]
    # a group: exactly one identity, associative, and a two-sided inverse for every element
    is_group = (
        len(identities) == 1
        and not assoc
        and all(any(op[a, b] == op[b, a] == identities[0] for b in labels) for a in labels)
    )
    return identities, absorbers, commut, assoc, is_group


@pytest.mark.parametrize("name", ["z2", "prefer_standard", "prefer_exotic"])
def test_analyze_matches_brute_force(name):
    magma = builtin(name)
    report = analyze(magma)
    identities, absorbers, commut, assoc, is_group = _brute_force(magma)
    assert list(report.identities) == identities
    assert list(report.absorbers) == absorbers
    assert list(report.commutativity_violations) == commut
    assert report.associativity_violations == len(assoc)
    assert report.associativity_witness == (assoc[0] if assoc else None)
    assert report.is_group == is_group


@st.composite
def magmas(draw):
    """A random table on 1-12 elements, or a cyclic group with a few cells changed."""
    n = draw(st.integers(1, 12))
    entry = st.integers(0, n - 1)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        rows = [[(x + y) % n for y in range(n)] for x in range(n)]
        for x, y, value in draw(st.lists(st.tuples(entry, entry, entry), max_size=3)):
            rows[x][y] = value
    return FiniteMagma("random", tuple(f"e{i}" for i in range(n)), tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(magmas())
def test_analyze_matches_brute_force_on_random_tables(magma):
    report = analyze(magma)
    identities, absorbers, commut, assoc, is_group = _brute_force(magma)
    assert list(report.identities) == identities
    assert list(report.absorbers) == absorbers
    assert list(report.commutativity_violations) == commut
    assert report.associativity_violations == len(assoc)
    assert report.associativity_witness == (assoc[0] if assoc else None)
    assert report.is_group == is_group


def _edge_table(n: int, kind: str) -> np.ndarray:
    """A random table with its largest entry present, or Z_n with one cell changed."""
    rng = np.random.default_rng(n)
    if kind == "random":
        table = rng.integers(0, n, size=(n, n), dtype=np.uint8)
        table[rng.integers(n), rng.integers(n)] = n - 1
    else:
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        table[n // 3, 2 * n // 3] = (table[n // 3, 2 * n // 3] + 1) % n
    return table.astype(np.uint8)


@pytest.mark.parametrize("kind", ["random", "cyclic"])
@pytest.mark.parametrize("n", [MAX_CARRIER - 1, MAX_CARRIER])
def test_analyze_at_the_byte_edge_matches_numpy(n, kind):
    table = _edge_table(n, kind)
    magma = FiniteMagma("edge", tuple(f"g{i}" for i in range(n)), tuple(map(tuple, table.tolist())))
    # fails[x, y, z]: (xy)z = table[table[x, y], z] against x(yz) = table[x, table[y, z]]
    fails = table[table] != table[:, table]
    x, y, z = np.argwhere(fails)[0]  # row-major first
    report = analyze(magma)
    assert report.associativity_violations == int(fails.sum()) > 0
    assert report.associativity_witness == (f"g{x}", f"g{y}", f"g{z}")


def test_analyze_refuses_a_carrier_over_a_byte():
    n = MAX_CARRIER + 1
    magma = FiniteMagma("big", tuple(f"g{i}" for i in range(n)), ((0,) * n,) * n)
    with pytest.raises(DomainError, match=f"at most {MAX_CARRIER} labels, got {n}"):
        analyze(magma)


def test_z2_report():
    report = analyze(builtin("z2"))
    assert report.identities == ("S",)
    assert report.absorbers == ()
    assert report.commutativity_violations == ()
    assert report.associativity_violations == 0
    assert report.is_group


def test_prefer_standard_report():
    report = analyze(builtin("prefer_standard"))
    assert report.identities == (DOTAB,)
    assert report.absorbers == (ABDOT,)
    # exactly one commuting failure, surfaced verbatim
    assert report.commutativity_violations == ((AB, BA),)
    assert report.associativity_violations == 3
    assert report.associativity_witness == (BA, AB, BA)
    assert not report.is_group


def test_prefer_exotic_report():
    report = analyze(builtin("prefer_exotic"))
    assert report.identities == (ABDOT,)
    assert report.absorbers == (DOTAB,)
    assert report.commutativity_violations == ()
    assert report.associativity_violations == 2
    assert not report.is_group


def test_mirror_tables_swap_identity_and_absorber():
    standard = analyze(builtin("prefer_standard"))
    exotic = analyze(builtin("prefer_exotic"))
    assert standard.identities == exotic.absorbers
    assert standard.absorbers == exotic.identities


def test_ascii_alias_lookup():
    table = builtin("prefer_standard")
    assert compose(table, "(ab,.)", "(b,a)") == ABDOT
    assert compose(table, "(.,ab)", "(.,ab)") == DOTAB
    assert normalize_label("(ab,.)") == ABDOT
    # labels without 'ab' keep their periods
    assert normalize_label("x.y") == "x.y"


def test_index_prefers_exact_match():
    # a custom carrier spelled with ASCII periods must stay addressable
    magma = FiniteMagma("ascii", ("(ab,.)", "c"), ((0, 1), (1, 0)))
    assert magma.index("(ab,.)") == 0
    with pytest.raises(DomainError):
        magma.index("nope")


def test_json_round_trip():
    for name in ("z2", "prefer_standard", "prefer_exotic"):
        magma = builtin(name)
        again = from_json(to_json(magma))
        assert again.carrier == magma.carrier
        assert again.table == magma.table
        assert again.name == magma.name


def test_from_json_rejects_malformed():
    with pytest.raises(DomainError):
        from_json("not json")
    with pytest.raises(DomainError):
        from_json('{"carrier": ["a"]}')
    with pytest.raises(DomainError):
        from_json('{"carrier": ["a"], "table": [["x"]]}')
    with pytest.raises(DomainError):
        from_json('{"carrier": ["a", "a"], "table": [[0, 0], [0, 0]]}')


ENTRIES = "table entries must be integers"
MATRIX = "magma table must be a matrix of carrier indices"


@pytest.mark.parametrize(
    "carrier, rows, message",
    [
        (("e", "g"), ((0, 1.0), (1, 0)), ENTRIES),
        (("e", "g"), ((0, True), (1, 0)), ENTRIES),
        (("e", "g"), ((0, "1"), (1, 0)), ENTRIES),
        (("e", "g"), ((0, [1]), (1, 0)), ENTRIES),
        (("e", None), ((0, 1), (1, 0)), "carrier labels must be strings"),
        (("e", 1), ((0, 1), (1, 0)), "carrier labels must be strings"),
    ],
)
def test_finite_magma_takes_entries_and_labels_as_typed(carrier, rows, message):
    with pytest.raises(DomainError) as caught:
        FiniteMagma("typed", carrier, rows)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # 1e400 parses as inf, which int() refused with an OverflowError
        ('{"carrier": ["e", "g"], "table": [[0, 1e400], [1, 0]]}', ENTRIES),
        # int() truncated these to [[0, 1], [1, 0]], a group
        ('{"carrier": ["e", "g"], "table": [[0.9, 1.7], [true, 0]]}', ENTRIES),
        ('{"carrier": ["e", "g"], "table": [[0, "1"], [1, 0]]}', ENTRIES),
        # str() made these the labels "1" and "None"
        ('{"carrier": [1, null], "table": [[0, 1], [1, 0]]}', "carrier labels must be strings"),
        ('{"carrier": "eg", "table": [[0, 1], [1, 0]]}', "magma carrier must be a list of labels"),
        ('{"carrier": ["e", "g"], "table": [0, 1]}', MATRIX),
        ('{"carrier": ["e", "g"], "table": "01"}', MATRIX),
        ('{"name": 1e400, "carrier": ["e"], "table": [[0]]}', "magma name must be a string"),
    ],
)
def test_from_json_takes_values_as_typed(text, message):
    with pytest.raises(DomainError) as caught:
        from_json(text)
    assert str(caught.value) == message


def test_table_validation():
    with pytest.raises(DomainError):
        FiniteMagma("bad", ("x", "y"), ((0, 1),))
    with pytest.raises(DomainError):
        FiniteMagma("bad", ("x", "y"), ((0, 5), (1, 0)))
