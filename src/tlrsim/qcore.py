"""Dense tensor-product states and operators for small open quantum systems.

Conventions used throughout the package:

* A :class:`HilbertSpace` is an ordered sequence of labeled subsystems.
  Composite matrices follow the Kronecker convention in which the first
  subsystem varies slowest, so embedding ``X`` on the first factor of a
  2 x 3 space yields ``kron(X, eye(3))``.
* Everything is a dense complex ``numpy`` array.  The largest space the
  package ever builds is a few tens of dimensions, so sparsity would buy
  nothing.
* An operator is a plain (d, d) complex array and a pure state an
  amplitude array.  The one state type, :class:`DensityMatrix`, is checked
  on construction, and its matrix is copied and marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "HilbertSpace",
    "DensityMatrix",
    "density_defect",
    "is_hermitian",
    "annihilation",
    "number",
    "projector",
    "embed",
]

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
NORM_TOL = 1e-10


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered collection of labeled subsystems.

    Parameters
    ----------
    subsystems:
        Sequence of ``(label, dimension)`` pairs.  Labels must be unique
    and dimensions positive integers.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __init__(self, subsystems: Iterable[tuple[str, int]]):
        subs = tuple((str(label), int(dim)) for label, dim in subsystems)
        if not subs:
            raise ValueError("a HilbertSpace needs at least one subsystem")
        labels = [label for label, _ in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        for label, dim in subs:
            if dim < 1:
                raise ValueError(f"subsystem {label!r} has dimension {dim} < 1")
        object.__setattr__(self, "subsystems", subs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        """Position of ``label`` in the subsystem ordering."""
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise KeyError(f"no subsystem labeled {label!r} in {self.labels}")

    def basis_state(self, occupations: Sequence[int]) -> "DensityMatrix":
        """Density matrix of the basis state ``|n_0, n_1, ...>``, one index per subsystem."""
        if len(occupations) != len(self.subsystems):
            raise ValueError("need one basis index per subsystem")
        amps = np.zeros(self.dim, dtype=complex)
        flat = 0
        for n, (_, d) in zip(occupations, self.subsystems):
            if not 0 <= n < d:
                raise ValueError(f"basis index {n} out of range for dimension {d}")
            flat = flat * d + n
        amps[flat] = 1.0
        return DensityMatrix(self, np.outer(amps, amps.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian matrix.

    Construction enforces trace within 1e-9 of one, Hermiticity within
    1e-10 (max elementwise deviation) and eigenvalues above -1e-8.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __init__(self, space: HilbertSpace, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise ValueError(f"density matrix shape {mat.shape} does not match dim {space.dim}")
        defect = density_defect(mat[None])
        if defect is not None:
            raise ValueError(defect[1])
        mat.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", mat)

    def population(self, flat_index: int) -> float:
        return float(np.real(self.matrix[flat_index, flat_index]))


def density_defect(matrices: np.ndarray) -> tuple[int, str] | None:
    """First matrix of an (n, d, d) stack that is not a valid state.

    The checks are :class:`DensityMatrix`'s, in its order: trace within
    ``TRACE_TOL`` of one, Hermiticity within ``HERMITICITY_TOL``, and no
    eigenvalue of the Hermitian part below ``-POSITIVITY_TOL``; a NaN
    fails.  Returns the index of the first failing matrix and the reason,
    or None when every matrix is a state.
    """
    adjoint = matrices.conj().swapaxes(1, 2)
    traces = np.trace(matrices, axis1=1, axis2=2)
    herm_dev = np.abs(matrices - adjoint).max(axis=(1, 2))
    sane = (np.abs(traces - 1.0) <= TRACE_TOL) & (herm_dev <= HERMITICITY_TOL)
    lowest = np.full(len(matrices), np.nan)
    lowest[sane] = np.linalg.eigvalsh((matrices[sane] + adjoint[sane]) / 2.0).min(axis=1)
    failed = np.flatnonzero(~(lowest >= -POSITIVITY_TOL))
    if not failed.size:
        return None
    i = int(failed[0])
    if not abs(traces[i] - 1.0) <= TRACE_TOL:
        return i, f"trace {complex(traces[i])} deviates from 1 by more than {TRACE_TOL}"
    if not herm_dev[i] <= HERMITICITY_TOL:
        return i, f"Hermiticity deviation {float(herm_dev[i])} exceeds {HERMITICITY_TOL}"
    return i, f"negative eigenvalue {float(lowest[i])} below -{POSITIVITY_TOL}"


def is_hermitian(matrix: np.ndarray) -> bool:
    """Hermiticity within ``HERMITICITY_TOL`` relative to the largest element."""
    scale = max(1.0, float(np.abs(matrix).max()))
    return float(np.abs(matrix - matrix.conj().T).max()) <= HERMITICITY_TOL * scale


def annihilation(dimension: int) -> np.ndarray:
    """Truncated bosonic annihilation operator ``a|n> = sqrt(n)|n-1>``."""
    if dimension < 2:
        raise ValueError(f"annihilation needs dimension >= 2, got {dimension}")
    return np.diag(np.sqrt(np.arange(1, dimension)), 1).astype(complex)


def number(dimension: int) -> np.ndarray:
    """Occupation-number operator ``diag(0, 1, ..., dimension - 1)``."""
    if dimension < 2:
        raise ValueError(f"number needs dimension >= 2, got {dimension}")
    return np.diag(np.arange(dimension, dtype=complex))


def projector(i: int, j: int, dimension: int) -> np.ndarray:
    """Matrix unit ``|i><j|`` on a single subsystem of the given dimension."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if not (0 <= i < dimension and 0 <= j < dimension):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {dimension}")
    mat = np.zeros((dimension, dimension), dtype=complex)
    mat[i, j] = 1.0
    return mat


def embed(op: np.ndarray, space: HilbertSpace, label: str) -> np.ndarray:
    """Tensor ``op`` with identities so it acts on subsystem ``label`` of ``space``.

    ``op`` must be square with the dimension of the labeled subsystem.
    The first subsystem of ``space`` is the slowest Kronecker index.
    """
    d = space.dims[space.index(label)]
    if np.shape(op) != (d, d):
        raise ValueError(
            f"operator shape {np.shape(op)} does not match subsystem {label!r} of dimension {d}"
        )
    out = np.array([[1.0 + 0.0j]])
    for name, dim in space.subsystems:
        out = np.kron(out, op if name == label else np.eye(dim))
    return out
