"""Master equation engine for small dense systems.

Two independent integration paths cross-check each other: a vectorized
superoperator exponential (column-stacking convention, vec(A rho B) =
(B^T kron A) vec(rho), applied by :func:`apply_superoperator`) and a
fixed-step RK4, run once at its step rule, that evaluates the dissipator
with matrix products, never touching the superoperator.  Jump rates are
canonical: a term (op, rate) contributes rate * (O rho O+ - {O+O, rho}/2);
a rate must be finite and nonnegative, and a term of rate 0 is dropped.
:func:`_expm` refuses a matrix that needs more than ``MAX_SQUARINGS``
squarings, whose roundoff would pass the states' trace tolerance.

Quasi-static noise is handled by one Monte Carlo loop,
:func:`monte_carlo_scalar`, which draws a point's samples in order from
one RNG substream keyed by (seed, point_index), so results do not depend
on execution order, worker count or block size.  It evaluates a
vectorized model on blocks of draws, such as the controlled-phase echo
on pure states, and keeps only the sample mean and its standard error.
For density matrices (:func:`monte_carlo_quasistatic`, given a generator,
a duration and a shift term) a draw x enters one evolution affinely,
G(x) = G0 + x G1 with G1 the superoperator of the shift: each block runs
one stacked Pade exponential of G0 t + x G1 t and validates every final
state.  A schedule (:func:`propagate_schedule`), the reference for the
closed-form lossy echo, is a sequence of (Liouvillian, duration) pairs,
which evolve, and unitary arrays, which kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import NORM_TOL, TRACE_TOL, DensityMatrix, HilbertSpace, density_defect, is_hermitian

__all__ = [
    "IntegrationError",
    "MonteCarloError",
    "LindbladTerm",
    "Liouvillian",
    "apply_superoperator",
    "propagator",
    "apply_propagator",
    "squaring_roundoff",
    "propagate_expm",
    "propagate_rk4",
    "propagate_schedule",
    "trace_distance",
    "substream_rng",
    "QuasiStaticNoise",
    "ObservableStat",
    "monte_carlo_quasistatic",
    "monte_carlo_scalar",
    "quasistatic_sigma",
]

MAX_STEPS = 10_000  # at _STEP_FRACTION: a decay exponent near 200, run in seconds

# RK4 target for dt * (spectral scale); keeps the global error comfortably
# below the 1e-6 cross-check budget for the times this package integrates.
_STEP_FRACTION = 0.02


class IntegrationError(RuntimeError):
    """Integrator could not reach the requested accuracy."""


class MonteCarloError(RuntimeError):
    """A Monte Carlo sample failed; message carries index and drawn value."""


@dataclass(frozen=True)
class LindbladTerm:
    """One jump operator (a (d, d) array) with its canonical rate."""

    operator: np.ndarray
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"jump rate must be finite, got {self.rate}")
        if self.rate < 0:
            raise ValueError(f"jump rate must be nonnegative, got {self.rate}")


@dataclass(frozen=True)
class Liouvillian:
    """Hamiltonian plus jump terms on one Hilbert space, as (d, d) arrays.

    A term of rate 0 is dropped, so a builder can list every channel.
    """

    space: HilbertSpace
    hamiltonian: np.ndarray
    terms: tuple[LindbladTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(t for t in self.terms if t.rate > 0))
        if not _on_space(self.hamiltonian, self.space):
            raise ValueError("hamiltonian lives on a different space")
        if not is_hermitian(self.hamiltonian):
            raise ValueError("hamiltonian must be Hermitian")
        for term in self.terms:
            if not _on_space(term.operator, self.space):
                raise ValueError("jump operator lives on a different space")

    def matrix(self) -> np.ndarray:
        """Dense superoperator in the column-stacking convention.

        kron(a, b)[i d + k, j d + l] is the product a[i, j] b[k, l]; the
        terms are summed as outer products, indexed [i, j, k, l], and
        reordered once at the end.
        """
        d = self.space.dim
        eye = np.eye(d)
        outer = np.multiply.outer
        h = self.hamiltonian
        sup = -1j * (outer(eye, h) - outer(h.T, eye))
        for term in self.terms:
            l = term.operator
            ldl = l.conj().T @ l
            sup += term.rate * (
                outer(l.conj(), l) - 0.5 * outer(eye, ldl) - 0.5 * outer(ldl.T, eye)
            )
        return sup.transpose(0, 2, 1, 3).reshape(d * d, d * d)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side d(rho)/dt evaluated with plain matrix products."""
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for term in self.terms:
            l = term.operator
            ldl = l.conj().T @ l
            out += term.rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
        return out

    def spectral_scale(self) -> float:
        """Rough magnitude of the fastest rate, for step-size heuristics."""
        scale = float(np.linalg.norm(self.hamiltonian, 2))
        for term in self.terms:
            scale += term.rate * float(np.linalg.norm(term.operator, 2)) ** 2
        return scale


def _on_space(op: np.ndarray, space: HilbertSpace) -> bool:
    return np.shape(op) == (space.dim, space.dim)


def apply_superoperator(superop: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """A (d^2, d^2) superoperator, or each of a stack, applied to a (d, d) matrix.

    The matrix is stacked by columns, vec(M)[i + j*d] = M[i, j], and each
    product is unstacked the same way; the result has shape (..., d, d).
    """
    d = np.shape(matrix)[-1]
    out = superop @ np.asarray(matrix).reshape(-1, order="F")
    return out.reshape(*out.shape[:-1], d, d).swapaxes(-1, -2)


# Scaling and squaring with diagonal Pade approximants (Higham, SIAM J.
# Matrix Anal. Appl. 26 (2005) 1179): coefficients b_k of the degree-m
# numerator p(A) = sum b_k A^k (denominator p(-A)), and the largest 1-norm
# at which degree m keeps the backward error below double roundoff.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_PADE_DEGREES = np.array([3, 5, 7, 9, 13])
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                        9.504178996162932e-1, 2.097847961257068e0])
_THETA_13 = 5.371920351148152e0
# each squaring can double the roundoff: 2^23 unit roundoffs (2^-30 = 9.3e-10)
# stay within the states' TRACE_TOL, 2^24 do not
MAX_SQUARINGS = 23


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Degree-m Pade approximant of exp(a), solved as q(a) r = p(a)."""
    b = _PADE[m]
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        evens = [ident, a2]  # a^0, a^2, ..., a^(m-1)
        while len(evens) <= m // 2:
            evens.append(evens[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(evens))
        v = sum(b[2 * k] * p for k, p in enumerate(evens))
    return np.linalg.solve(v - u, v + u)


def _plan(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pade degree and squaring count of each matrix, from its 1-norm."""
    degrees = _PADE_DEGREES[np.searchsorted(_PADE_THETA, norms)]
    frac, s = np.frexp(norms / _THETA_13)
    # ceil(log2(norm / theta_13)), for the degree-13 matrices only
    return degrees, np.where(degrees == 13, np.maximum(0, s - (frac == 0.5)), 0)


def _scaled_pade(a: np.ndarray, m: int, s: int) -> np.ndarray:
    if m < 13:
        return _pade(a, m)
    r = _pade(a * 2.0**-s, 13)
    for _ in range(s):
        r = r @ r
    return r


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square array, or of each matrix of a stack.

    ``a`` has shape (..., m, m).  Each matrix gets the lowest Pade degree
    whose 1-norm threshold covers it; beyond the degree-9 threshold it is
    scaled by 2^-s into the degree-13 range and the result squared s
    times.  The degree and s depend on that matrix alone, so its result
    does not depend on the stack it comes in; the matrices that share
    both are computed together.  A matrix that needs more than
    ``MAX_SQUARINGS`` squarings raises ValueError before any work.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm needs square matrices, got shape {a.shape}")
    norms = np.linalg.norm(a, 1, axis=(-2, -1))
    if np.any(norms > _THETA_13 * 2.0**MAX_SQUARINGS):
        raise ValueError(
            f"matrix exponential of 1-norm {norms.max():.3g} needs more than "
            f"{MAX_SQUARINGS} squarings, whose roundoff would pass the {TRACE_TOL:g} trace tolerance"
        )
    degrees, s = _plan(norms.ravel())
    stack = a.reshape(-1, *a.shape[-2:])
    out = np.empty(stack.shape, dtype=np.result_type(a.dtype, float))
    for m, k in set(zip(degrees.tolist(), s.tolist())):
        sel = (degrees == m) & (s == k)
        out[sel] = _scaled_pade(stack[sel], m, k)
    return out.reshape(a.shape)


def propagator(liouvillian: Liouvillian, duration: float) -> np.ndarray:
    """Superoperator exp(L t) acting on column-stacked density matrices."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    return _expm(liouvillian.matrix() * duration)


def apply_propagator(superop: np.ndarray, rho0: DensityMatrix) -> DensityMatrix:
    """Map a state through a superoperator built by :func:`propagator`.

    The result is re-Hermitized as (rho + rho+)/2 before state validation;
    the pre-Hermitization asymmetry is pure vectorization roundoff and is
    bounded separately by the validation suite.
    """
    final = apply_superoperator(superop, rho0.matrix)
    final = 0.5 * (final + final.conj().T)
    return DensityMatrix(rho0.space, final)


def squaring_roundoff(liouvillian: Liouvillian, duration: float, exc: ValueError) -> ValueError:
    """``exc`` from a state of ``propagator(liouvillian, duration)``, naming its squarings."""
    s = int(_plan(np.linalg.norm(liouvillian.matrix() * duration, 1))[1])
    return ValueError(f"state failed after {s} squarings of the propagator: {exc}")


def propagate_expm(
    liouvillian: Liouvillian, rho0: DensityMatrix, duration: float
) -> DensityMatrix:
    """Evolve by the matrix exponential of the superoperator."""
    if rho0.space != liouvillian.space:
        raise ValueError("state lives on a different space")
    superop = propagator(liouvillian, duration)
    try:
        return apply_propagator(superop, rho0)
    except ValueError as exc:
        raise squaring_roundoff(liouvillian, duration, exc) from exc


def propagate_rk4(
    liouvillian: Liouvillian, rho0: DensityMatrix, duration: float
) -> DensityMatrix:
    """Fixed-step RK4 on the matrix-valued master equation, run once.

    Takes max(16, ceil(T * spectral_scale / ``_STEP_FRACTION``)) steps; as
    ||L|| <= 2 * spectral_scale, each lies deep inside RK4's stability region.
    More than ``MAX_STEPS`` steps, or a failed final state, raise IntegrationError.
    """
    if rho0.space != liouvillian.space:
        raise ValueError("state lives on a different space")
    if duration < 0:
        raise ValueError("duration must be nonnegative")

    steps = max(16, math.ceil(duration * liouvillian.spectral_scale() / _STEP_FRACTION))
    if steps > MAX_STEPS:
        raise IntegrationError(f"generator too stiff: {steps} RK4 steps exceed the cap {MAX_STEPS}")
    final = _rk4_run(liouvillian, rho0.matrix, duration, steps)
    try:
        return DensityMatrix(liouvillian.space, 0.5 * (final + final.conj().T))
    except ValueError as exc:
        raise IntegrationError(f"RK4 state failed after {steps} steps: {exc}") from exc


def _rk4_run(liouvillian: Liouvillian, rho0: np.ndarray, duration: float, steps: int) -> np.ndarray:
    dt = duration / steps
    rho = rho0.astype(complex)
    rhs = liouvillian.apply
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def propagate_schedule(
    segments: Sequence[tuple[Liouvillian, float] | np.ndarray], rho0: DensityMatrix
) -> DensityMatrix:
    """Run a pulse schedule segment by segment.

    A segment is a (Liouvillian, duration) pair, which evolves, or a (d, d)
    unitary array, which kicks.  A pair object that occurs more than once
    in the schedule has its propagator built once and reused; every
    segment's output is still validated as a state.
    """
    built = {}
    state = rho0
    for segment in segments:
        if isinstance(segment, tuple):
            generator, duration = segment
            if generator.space != rho0.space:
                raise ValueError("state lives on a different space")
            if id(segment) not in built:  # a Liouvillian holds arrays: no hash by value
                built[id(segment)] = propagator(generator, duration)
            state = apply_propagator(built[id(segment)], state)
            continue
        u = np.asarray(segment)
        if not _on_space(u, rho0.space):
            raise ValueError("unitary lives on a different space")
        if not np.abs(u @ u.conj().T - np.eye(len(u))).max() <= NORM_TOL:
            raise ValueError("schedule kick needs a unitary operator")
        state = DensityMatrix(state.space, u @ state.matrix @ u.conj().T)
    return state


def trace_distance(
    a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray
) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(ma - mb))))


def substream_rng(seed: int, point_index: int) -> np.random.Generator:
    """Independent RNG substream of one sweep point.

    The same (seed, point_index) always yields the same stream, and
    distinct pairs yield statistically independent streams, so a point's
    draws do not depend on which process runs it, or when.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point_index,)))


@dataclass(frozen=True)
class QuasiStaticNoise:
    """Gaussian quasi-static spread of one scalar parameter.

    One value is drawn per Monte Carlo trajectory, in order from the
    point's (seed, point_index) substream.
    """

    mean: float
    std: float
    label: str
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("noise std must be nonnegative")
        if self.sample_count < 2:
            raise ValueError("sample count must be at least 2: a standard error needs two")


@dataclass(frozen=True)
class ObservableStat:
    """Sample mean of one scalar observable over the trajectories, and its standard error."""

    mean: float
    std_error: float


# samples per Monte Carlo block: bounds the memory at any sample count
# (the warm default controlled-phase sweep took 45, 40 and 47 ms at blocks
# of 32, 128 and 1000 on a 2-CPU host, so a small block costs little)
SAMPLE_BLOCK = 32


def monte_carlo_scalar(
    model: Callable[[np.ndarray], np.ndarray],
    noise: QuasiStaticNoise,
    *,
    point_index: int = 0,
) -> ObservableStat:
    """Average a vectorized model over quasi-static Gaussian draws.

    ``model`` maps an (n,) array of drawn values to n observable values.
    Samples run in blocks of ``SAMPLE_BLOCK``, drawn in order from the
    point's (seed, point_index) substream, so no value depends on where
    the blocks split and a point's first n samples are the same at any
    sample count of at least n.  A block that raises is re-run one sample
    at a time, and the first failing sample raises
    :class:`MonteCarloError` with its index and drawn value.
    """
    count = noise.sample_count
    rng = substream_rng(noise.seed, point_index)
    values = np.empty(count)
    for start in range(0, count, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, count)
        draws = noise.mean + noise.std * rng.standard_normal(stop - start)
        try:
            values[start:stop] = model(draws)
        except Exception:
            for k, draw in enumerate(draws):
                try:
                    model(draws[k : k + 1])
                except Exception as exc:
                    raise MonteCarloError(
                        f"sample {start + k} ({noise.label}={float(draw)!r}) failed: {exc}"
                    ) from exc
            raise
    std_error = float(values.std(ddof=1) / math.sqrt(count))
    return ObservableStat(mean=float(values.mean()), std_error=std_error)


def monte_carlo_quasistatic(
    generator: Liouvillian,
    duration: float,
    shift: np.ndarray,
    noise: QuasiStaticNoise,
    rho0: DensityMatrix,
    observable: Callable[[np.ndarray], np.ndarray],
) -> ObservableStat:
    """Average an observable of one evolution's final states over quasi-static draws.

    A sample evolves for ``duration`` under ``generator`` with x * ``shift``
    added to its Hamiltonian, x its drawn value.  Each block of
    :func:`monte_carlo_scalar` takes one stacked exponential of
    G0 t + x G1 t and applies it to rho0; each final state is Hermitized
    and checked against the :class:`DensityMatrix` tolerances.
    ``observable`` maps the (n, d, d) stack of final states to n values.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if generator.space != rho0.space:
        raise ValueError("state lives on a different space")
    g0 = generator.matrix() * duration
    g1 = Liouvillian(rho0.space, shift).matrix() * duration  # checks the shift's shape, Hermiticity

    def block(draws: np.ndarray) -> np.ndarray:
        states = apply_superoperator(_expm(g0 + draws[:, None, None] * g1), rho0.matrix)
        states = 0.5 * (states + states.conj().swapaxes(1, 2))
        defect = density_defect(states)
        if defect is not None:
            raise ValueError(defect[1])
        return observable(states)

    return monte_carlo_scalar(block, noise)


def quasistatic_sigma(g: float, delta: float, gamma2: float, t_gate: float) -> float:
    """Quasi-static detuning spread equivalent to Markovian dephasing.

    Chosen so the Gaussian-averaged coherence loss equals the Lindblad
    prediction exactly at t_gate: sigma = (delta/g) * sqrt(2 gamma2 / t_gate).
    """
    if g <= 0 or t_gate <= 0:
        raise ValueError("coupling and gate time must be positive")
    if gamma2 < 0:
        raise ValueError("dephasing rate must be nonnegative")
    return abs(delta / g) * math.sqrt(2.0 * gamma2 / t_gate)
