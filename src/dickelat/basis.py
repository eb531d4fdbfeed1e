"""Enumeration of the working basis: its (N, m) labels in index order.

The pipeline works in the parity-adapted displaced-shell basis, one sector of
the Z2 parity at a time.  A label (N, m) names the displaced-shell state
|N; j, m>, m a Jx projection and N the excitation count of the displaced
mode; a sector keeps the m >= 0 labels and pairs each m > 0 with its mirror.

Labels are ordered m-major, excitation-minor.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import m_values


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

    def rows_with_excitation(self, n):
        """Indices of all labels in excitation shell n."""
        return np.nonzero(self.n_exc == n)[0]

    def block_slices(self):
        """(m, slice) for each contiguous m block, ascending in m."""
        out = []
        start = 0
        for i in range(1, self.size + 1):
            if i == self.size or self.m_vals[i] != self.m_vals[start]:
                out.append((float(self.m_vals[start]), slice(start, i)))
                start = i
        return out


def basis_size(spec: BasisSpec) -> int:
    """Number of labels enumerate_basis(spec) yields, counted without them."""
    shells = spec.n_max + 1
    twoj = round(2 * spec.j)
    size = (twoj + 1) // 2 * shells  # the m > 0 labels
    if twoj % 2 == 0:  # m = 0 keeps the shells whose (-1)^N matches the sector
        even = spec.parity_sector * sector_twist(spec.j) == 1
        size += (shells + 1) // 2 if even else shells // 2
    return size


def enumerate_basis(spec: BasisSpec) -> BasisIndex:
    """Enumerate the basis labels for `spec` in deterministic (m, n) ascending order.

    Only m >= 0 labels appear; an m = 0 label (integer j only) is kept only
    when (-1)^N matches s * (-1)^(2j) for sector s, where it coincides with
    its own parity partner.
    """
    j, n_max = spec.j, spec.n_max
    target = spec.parity_sector * sector_twist(j)
    ns, ms = [], []
    for m in m_values(j):
        if m < 0:
            continue
        for n in range(n_max + 1):
            if m == 0.0 and (1 if n % 2 == 0 else -1) != target:
                continue
            ns.append(n)
            ms.append(m)
    return BasisIndex(spec, ns, ms)
