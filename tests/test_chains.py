import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.chains import ChainEvent, run_chain, select_table
from spinorlab.errors import DomainError
from spinorlab.winding import WindingGradient, involuted

AB = "(a,b)"
ABDOT = "(ab,·)"
DOTAB = "(·,ab)"
BA = "(b,a)"


def _field(kz, scale=1.0):
    return WindingGradient(k=np.array([0.0, 0.0, kz]), scale=scale)


P = np.array([0.0, 0.0, 0.5])


def test_select_table_signs():
    assert select_table(_field(0.01), P) == "prefer_standard"
    assert select_table(_field(-0.01), P) == "prefer_exotic"
    assert select_table(_field(0.0), P) == "z2"
    # orthogonal winding axis is degenerate no matter how strong
    assert select_table(_field(5.0), np.array([1.0, 0.0, 0.0])) == "z2"


def test_select_table_scale_and_tol():
    # the scale knob multiplies the alignment, so scale 0 is degenerate
    assert select_table(_field(0.01, scale=0.0), P) == "z2"
    assert select_table(_field(0.01), P, tol=1.0) == "z2"
    with pytest.raises(DomainError):
        select_table(_field(0.01), P, tol=-1.0)


def test_single_involution_switches_table_and_composes():
    # aligned start, one event that flips the field then composes with (a,b)
    table = select_table(_field(0.01), P)
    final, trace = run_chain(AB, [ChainEvent(AB, involute_first=True)], table)
    assert final == AB
    assert len(trace) == 1
    assert trace[0].table == "prefer_exotic"
    assert trace[0].state == AB
    assert trace[0].step == 1


def test_double_involution_restores_table():
    table = select_table(_field(0.01), P)
    events = [
        ChainEvent(DOTAB, involute_first=True),
        ChainEvent(DOTAB, involute_first=True),
    ]
    final, trace = run_chain(AB, events, table)
    assert [entry.table for entry in trace] == ["prefer_exotic", "prefer_standard"]
    # (a,b) hits the prefer_exotic absorber, which is the prefer_standard identity
    assert trace[0].state == DOTAB
    assert final == DOTAB


def test_absorber_sticks_without_involution():
    table = select_table(_field(0.01), P)
    events = [ChainEvent(ABDOT), ChainEvent(BA), ChainEvent(DOTAB), ChainEvent(AB)]
    final, trace = run_chain(AB, events, table)
    assert all(entry.table == "prefer_standard" for entry in trace)
    assert all(entry.state == ABDOT for entry in trace)
    assert final == ABDOT


def test_state_label_survives_table_toggle():
    # reaching the prefer_standard absorber then flipping the field leaves the
    # label intact, and it acts as the prefer_exotic identity afterwards
    table = select_table(_field(0.01), P)
    events = [ChainEvent(ABDOT), ChainEvent(AB, involute_first=True)]
    final, trace = run_chain(AB, events, table)
    assert trace[0].state == ABDOT
    assert trace[1].table == "prefer_exotic"
    # under the flipped table the carried label is the identity, so the
    # operand passes through unchanged
    assert final == AB


def test_z2_parity_chain_matches_counting():
    rng = np.random.default_rng(23)
    table = select_table(_field(0.0), P)
    labels = ["S", "C", AB, BA]
    for _ in range(40):
        count = int(rng.integers(1, 12))
        picks = [labels[int(rng.integers(0, 4))] for _ in range(count)]
        involutions = [bool(rng.integers(0, 2)) for _ in range(count)]
        events = [
            ChainEvent(pick, involute_first=flip)
            for pick, flip in zip(picks, involutions)
        ]
        start = labels[int(rng.integers(0, 4))]
        final, trace = run_chain(start, events, table)
        # independent parity count: C and (b,a) each flip parity
        flips = sum(1 for pick in [start] + picks if pick in ("C", BA)) % 2
        assert final == ("C" if flips else "S")
        # involution never escapes the degenerate context
        assert all(entry.table == "z2" for entry in trace)


def test_z2_rejects_absorber_adjacent_labels():
    table = select_table(_field(0.0), P)
    with pytest.raises(DomainError):
        run_chain("S", [ChainEvent(ABDOT)], table)
    with pytest.raises(DomainError):
        run_chain("S", [ChainEvent("(.,ab)")], table)
    with pytest.raises(DomainError):
        run_chain(DOTAB, [ChainEvent("S")], table)


def test_parity_labels_need_degenerate_context():
    table = select_table(_field(0.01), P)
    with pytest.raises(DomainError):
        run_chain("S", [ChainEvent(AB)], table)
    with pytest.raises(DomainError):
        run_chain(AB, [ChainEvent("C")], table)


def test_ascii_operands_accepted():
    table = select_table(_field(0.01), P)
    final, _ = run_chain("(ab,.)", [ChainEvent("(.,ab)")], table)
    assert final == ABDOT


def test_unknown_table_is_refused():
    with pytest.raises(DomainError, match="unknown table 'prefer_plus'"):
        run_chain(AB, [ChainEvent(AB)], "prefer_plus")


def _flip_and_reselect(initial, events, field, momentum, tol):
    """The chain the long way: each involution flips the field and re-selects."""
    table = select_table(field, momentum, tol)
    state, trace = initial, []
    for event in events:
        if event.involute_first:
            field = involuted(field)
            table = select_table(field, momentum, tol)
        state, _ = run_chain(state, [ChainEvent(event.operand)], table)
        trace.append((table, state))
    return state, trace


def _magnitude():
    # 0 or +-10**e for e in [-20, 5]
    sign = st.sampled_from([-1.0, 1.0])
    return st.one_of(
        st.just(0.0), st.builds(lambda s, e: s * 10.0**e, sign, st.floats(-20.0, 5.0))
    )


_VECTOR = st.tuples(_magnitude(), _magnitude(), _magnitude())
_SCALE = st.one_of(st.sampled_from([1.0, 0.5, -2.0, 0.0]), st.floats(-4.0, 4.0))
_TOL = st.one_of(st.none(), st.floats(-30.0, 2.0).map(lambda e: 10.0**e))
_CARRIERS = {
    "z2": ["S", "C", AB, BA],
    "prefer_standard": [AB, BA, ABDOT, DOTAB],
    "prefer_exotic": [AB, BA, ABDOT, DOTAB],
}


@settings(max_examples=400, deadline=None)
@given(
    k=_VECTOR, p=_VECTOR, perpendicular=st.booleans(), scale=_SCALE, tol=_TOL, data=st.data()
)
def test_mirrored_table_matches_flipping_the_field(k, p, perpendicular, scale, tol, data):
    k, p = np.array(k), np.array(p)
    if perpendicular:
        # k along the ring, p transverse to it: s*(k.p) is exactly 0
        k[:2], p[2] = 0.0, 0.0
    field = WindingGradient(k=k, scale=scale)
    table = select_table(field, p, tol)
    labels = st.sampled_from(_CARRIERS[table])
    initial = data.draw(labels, label="initial")
    flips = st.tuples(labels, st.booleans())
    events = [
        ChainEvent(operand, involute_first=flip)
        for operand, flip in data.draw(st.lists(flips, min_size=1, max_size=29), label="events")
    ]
    final, trace = run_chain(initial, events, table)
    assert [step.step for step in trace] == list(range(1, len(events) + 1))
    expected = _flip_and_reselect(initial, events, field, p, tol)
    assert (final, [(step.table, step.state) for step in trace]) == expected
