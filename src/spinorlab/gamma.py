# Dirac representation, metric signature (+,-,-,-).
import numpy as np

GAMMA0 = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ],
    dtype=complex,
)

GAMMA3 = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [-1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)
