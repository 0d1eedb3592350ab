"""Hash the bits of seeded branch energies and ring modes, to compare two checkouts.

Usage (from the root of a source checkout):

    python3 bench/energy_bits.py [--src src] [--rows 1000000] [--rings 200] [--seed 28]

Imports the package from --src (so a second checkout's tree can be run the
same way) and prints one JSON line: a sha256 of the float64 bytes of every
column, which is the same test as comparing each value's float.hex.

* branch_energies under formula "both" and "exact", on --rows seeded rows in
  chunks of 100000: m log-uniform in 1e-3..1e3, and every component of p and
  k log-uniform in 1e-60..1e60 with a random sign, at a scale drawn from
  {1, 0.5, 0.37, -2} per chunk.  A row whose m^2 + |p|^2, m^2 + |p -+ s*k|^2
  or s*(k.p) is not a normal float is left out of the hashes and counted.
* ring_modes on --rings seeded rings: N even in 4..256, L log-uniform in
  1e-3..1e3, twist uniform in -10..10, m zero or log-uniform in 1e-3..1e3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

CHUNK = 100_000
COLUMNS = (
    "rest", "signed_shift", "semiclassical_plus", "semiclassical_minus",
    "exact_standard", "exact_plus", "exact_minus", "gap_exact",
)


def _normal(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (np.abs(values) >= np.finfo(np.float64).tiny)


def _signed_log_uniform(rng: np.random.Generator, shape, low: float, high: float) -> np.ndarray:
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory that holds the spinorlab package")
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--rings", type=int, default=200)
    parser.add_argument("--seed", type=int, default=28)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from spinorlab.dispersion import branch_energies
    from spinorlab.lattice import RingSpec, ring_modes

    rng = np.random.default_rng(args.seed)
    hashes = {
        f"{formula}.{column}": hashlib.sha256()
        for formula in ("both", "exact")
        for column in COLUMNS
    }
    kept = left_out = 0
    for start in range(0, args.rows, CHUNK):
        size = min(CHUNK, args.rows - start)
        masses = 10.0 ** rng.uniform(-3.0, 3.0, size)
        momenta = _signed_log_uniform(rng, (size, 3), -60.0, 60.0)
        ks = _signed_log_uniform(rng, (size, 3), -60.0, 60.0)
        scale = float(rng.choice([1.0, 0.5, 0.37, -2.0]))
        shift = scale * ks
        ordinary = _normal(scale * np.vecdot(momenta, ks))
        for vectors in (momenta, momenta - shift, momenta + shift):
            ordinary &= _normal(masses**2 + np.vecdot(vectors, vectors))
        kept += int(ordinary.sum())
        left_out += int(size - ordinary.sum())
        for formula in ("both", "exact"):
            energies = branch_energies(masses, momenta, ks, scale, formula)
            for column in COLUMNS:
                values = getattr(energies, column)
                if values is not None:
                    hashes[f"{formula}.{column}"].update(values[ordinary].tobytes())

    rings = hashlib.sha256()
    for _ in range(args.rings):
        spec = RingSpec(
            sites=2 * int(rng.integers(2, 129)),
            circumference=float(10.0 ** rng.uniform(-3.0, 3.0)),
            twist=float(rng.uniform(-10.0, 10.0)),
            mass=float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 3.0)])),
        )
        for column in ring_modes(spec):
            rings.update(np.ascontiguousarray(column, dtype=float).tobytes())

    result = {"src": args.src, "seed": args.seed, "rows_kept": kept, "rows_left_out": left_out}
    result.update({name: digest.hexdigest() for name, digest in hashes.items()})
    result["ring_modes"] = rings.hexdigest()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
