"""DomainError and the one table of input rules, each validator owning a rule's
test and message.  No numpy at load time: magma imports this module."""

import json
import math


class DomainError(ValueError):
    """Raised when an input is outside an operation's mathematical domain.

    The command line maps this to its own exit code so callers can tell a
    rejected input apart from a failed verification.
    """


def check_finite(what: str, *values) -> None:
    """Refuse the first of the values (numbers or arrays) that is not finite."""
    import numpy as np
    for value in values:
        # a float takes math.isfinite, far cheaper than a numpy call per scalar
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise DomainError(f"{what} must be finite")


def check_mass(mass) -> None:
    """Refuse a mass, one number or an array of them, that is not finite or is negative."""
    import numpy as np
    if not (np.isfinite(mass) & (mass >= 0.0)).all():
        raise DomainError("mass must be finite and non-negative")


def check_circumference(circumference: float) -> None:
    if not 0.0 < circumference < math.inf:
        raise DomainError("circumference must be positive and finite")


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not positive and finite, naming it."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def as_3vector(what: str, value):
    """value as a float array of shape (3,); any other shape is refused."""
    import numpy as np
    vector = np.asarray(value, dtype=float)
    if vector.shape != (3,):
        raise DomainError(f"{what} must be a 3-vector")
    return vector


def check_non_negative(flag: str, value: int) -> None:
    """Refuse a count given on the command line as flag that is negative."""
    if value < 0:
        raise DomainError(f"{flag} must be non-negative")


def as_winding(winding) -> int:
    """winding as an int; nan, an infinity or a fraction is refused."""
    whole = int(winding) if abs(winding) < math.inf else None
    if whole != winding:
        raise DomainError("winding must be an integer")
    return whole


def parse_json(text: str, what: str):
    """text read as JSON; text that is not JSON, or nests too deep to read, is refused."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"invalid {what} JSON: {exc}") from None


def as_bool(what: str, value) -> bool:
    """value, a JSON boolean; any other value (a string, a number, null) is refused."""
    if not isinstance(value, bool):
        raise DomainError(f"{what} must be true or false")
    return value
