"""Enumeration of the working basis: its (N, m) labels in index order.

The pipeline works in the parity-adapted displaced-shell basis, one sector of
the Z2 parity at a time.  A label (N, m) names the displaced-shell state
|N; j, m>, m a Jx projection and N the excitation count of the displaced
mode; a sector keeps the m >= 0 labels and pairs each m > 0 with its mirror.

Labels are ordered m-major, excitation-minor.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np


def sector_twist(j):
    """Sign relating a parity sector label to the (-1)^N rule for m = 0 / m-pairing.

    +1 for integer j, -1 for half-integer j: in the m-ascending ladder
    convention used throughout, the parity operator maps |N; j, m> to
    (-1)^(2j) (-1)^N |N; j, -m>.
    """
    return 1 if round(2 * j) % 2 == 0 else -1


@dataclass(frozen=True)
class BasisSpec:
    """Spin length, shell truncation and parity sector (+1 or -1)."""

    j: float
    n_max: int
    parity_sector: int

    def __post_init__(self):
        twoj = 2.0 * self.j
        if twoj < 0 or twoj != round(twoj):
            raise ValueError(f"invalid j={self.j}: 2j must be a non-negative integer")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.parity_sector not in (+1, -1):
            raise ValueError("parity_sector must be +1 or -1")


class BasisIndex:
    """The (excitation, m) label of each basis index: label i is
    (n_exc[i], m_vals[i])."""

    def __init__(self, spec, n_exc, m_vals):
        self.spec = spec
        self.n_exc = np.asarray(n_exc, dtype=int)
        self.m_vals = np.asarray(m_vals, dtype=float)
        self.size = self.n_exc.size


def blocks(spec: BasisSpec):
    """(m, rows, shells) for each m >= 0 block in index order: rows the slice
    of the index its labels fill, shells the range of their excitations N.
    That range is all of 0..n_max for m > 0; for m = 0 (integer j only) the
    N whose (-1)^N is the sector label times sector_twist(j), where a label
    coincides with its own parity partner, so at n_max = 0 one sector's
    m = 0 block is empty."""
    twoj = round(2 * spec.j)
    shells = range(spec.n_max + 1)
    out = [(k / 2.0, shells) for k in range(2 - twoj % 2, twoj + 1, 2)]
    if twoj % 2 == 0:
        target = spec.parity_sector * sector_twist(spec.j)  # (-1)^N of its labels
        out.insert(0, (0.0, shells[0 if target == 1 else 1::2]))
    stops = accumulate(len(s) for _, s in out)
    return [(m, slice(stop - len(s), stop), s) for (m, s), stop in zip(out, stops)]


def basis_size(spec: BasisSpec) -> int:
    """Number of labels enumerate_basis(spec) yields, counted without them."""
    return blocks(spec)[-1][1].stop


def enumerate_basis(spec: BasisSpec) -> BasisIndex:
    """The basis labels of `spec` in (m, N) ascending order, one block of
    `blocks` after another."""
    layout = blocks(spec)
    n_exc = np.concatenate([np.arange(s.start, s.stop, s.step) for _, _, s in layout])
    m_vals = np.repeat([m for m, _, _ in layout], [len(s) for _, _, s in layout])
    return BasisIndex(spec, n_exc, m_vals)
