"""Table selection and transition chains.

The sign of s*(k.p) decides which composition table governs transitions:
positive selects ``prefer_standard``, negative ``prefer_exotic``, and the
degenerate band |s*(k.p)| <= tol falls back to the two-element ``z2``
parity table.  A chain is a sequence of events, each optionally flipping
the winding field (the angle involution, which negates k and therefore
swaps the two preference tables) before composing the current state with
an operand.

The momentum is fixed for the whole chain and the flip permutes the
tables (see _MIRROR), so the active table never moves between the
two-element and four-element carriers mid-chain.  Under ``z2`` the
transition labels (a,b) and (b,a) are admitted as aliases for S and C; the
two absorber-adjacent labels have no parity meaning and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Preference, preferred_branch
from .errors import DomainError
from .magma import BUILTIN_NAMES, builtin, compose, normalize_label
from .winding import WindingGradient

_Z2_ALIASES = {"S": "S", "C": "C", "(a,b)": "S", "(b,a)": "C"}


PREFERENCE_TABLE = {
    Preference.PREFER_PLUS: "prefer_standard",
    Preference.PREFER_MINUS: "prefer_exotic",
    Preference.DEGENERATE: "z2",
}

# The table after a field involution.  involuted negates k; each product
# p_i*(-k_i) is the exact negation of p_i*k_i, and so is each rounded sum,
# so s*(k.p) becomes -s*(k.p) bit for bit while tol does not change.
# preferred_branch on the flipped field therefore returns the mirrored
# preference, and since the band |s*(k.p)| <= tol is symmetric, z2 stays z2.
_MIRROR = {"prefer_standard": "prefer_exotic", "prefer_exotic": "prefer_standard", "z2": "z2"}

_MAGMAS = {name: builtin(name) for name in BUILTIN_NAMES}


def select_table(
    field: WindingGradient, momentum: np.ndarray, tol: float | None = None
) -> str:
    """Name of the table consistent with the sign of s*(k.p)."""
    return PREFERENCE_TABLE[preferred_branch(field, momentum, tol)]


@dataclass(frozen=True)
class ChainEvent:
    operand: str
    involute_first: bool = False


@dataclass(frozen=True)
class ChainStep:
    step: int
    table: str
    state: str


def _admit(label: str, table_name: str) -> str:
    """Map a label into the active carrier, enforcing the degenerate restriction."""
    label = normalize_label(label)
    if table_name == "z2":
        if label in _Z2_ALIASES:
            return _Z2_ALIASES[label]
        raise DomainError(
            f"{label!r} has no parity under the degenerate z2 context"
        )
    if label in ("S", "C"):
        raise DomainError(f"parity label {label!r} needs a degenerate context")
    return label


def run_chain(
    initial: str,
    events: list[ChainEvent] | tuple[ChainEvent, ...],
    table: str,
) -> tuple[str, tuple[ChainStep, ...]]:
    """Evaluate a chain of involution/composition events.

    table is select_table's answer for the chain's field and momentum.
    Each event first applies the field involution if requested, which
    replaces the active table by its mirror, then composes the running
    state with the operand under the active table.  The state label carries
    over unchanged when the table toggles between the two four-element
    tables, which share a carrier.  Returns the final state and one trace
    entry (step, table, state) per event.
    """
    if table not in _MIRROR:
        raise DomainError(f"unknown table {table!r}")
    active = table
    state = _admit(initial, active)
    trace: list[ChainStep] = []
    for position, event in enumerate(events, start=1):
        if event.involute_first:
            active = _MIRROR[active]
        operand = _admit(event.operand, active)
        state = compose(_MAGMAS[active], state, operand)
        trace.append(ChainStep(step=position, table=active, state=state))
    return state, tuple(trace)
