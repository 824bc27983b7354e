"""Dictionary generators used by the certificates and experiments.

All generators return a :class:`Dictionary` whose matrix has unit-norm
columns and is frozen there, so projection states share it instead of
copying it.  Randomized generators take an explicit integer seed and
are bit-reproducible (PCG64 generator).  Each generator builds its matrix
in one array and normalizes it in place (:func:`_normalize`), so
generation holds about one matrix of memory: a larger peak would make
the allocator hand the pages back after every trial of an experiment
and fault them in again for the next.  The command line and the
experiments name a family and build it through one registry,
:func:`_build`.

The random families draw through one helper, :func:`_draw`, which fills
a given buffer from one seed.  :func:`_stack` uses it to draw many
seeds straight into one ``(T, m, n)`` array, normalized in one pass,
for the kernel's stacked call in brc-map: every slice has the bits of
the single-matrix generator, and no per-seed :class:`Dictionary` or
copy into the stack is made.
"""

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .exceptions import EmptyAtomError
from .linalg import _located

__all__ = [
    "Dictionary",
    "gaussian",
    "hybrid",
    "convolutive",
    "example1",
]


@dataclass(frozen=True)
class Dictionary:
    matrix: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _finite(name, value):
    """``value`` as a float; NaN and infinities raise ``ValueError``."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _normalize(a):
    """Divide the columns of ``a``, or of every matrix of a ``(T, m, n)``
    stack, by their norms, in place.

    The norms are the bits of ``np.linalg.norm(a, axis=0)`` on each
    matrix.  On a C-ordered matrix of several columns, which every
    generator draws, ``norm`` adds the squares row by row, and one
    ``einsum`` pass adds them in that order without forming the squared
    copy of ``a``, for a whole stack at once; a single column or another
    layout is summed pairwise, so it keeps ``norm``.  Zero and
    overflowing norms raise, naming the column and, in a stack, the
    trial.
    """
    if a.flags.c_contiguous and a.shape[-1] > 1:
        norms = np.sqrt(np.einsum("...ij,...ij->...j", a, a))
    else:
        norms = np.linalg.norm(a, axis=-2)
    if np.any(norms == 0.0):
        where = _located(np.argwhere(norms == 0.0)[0], None)
        raise EmptyAtomError(f"{where} is identically zero")
    if not np.isfinite(norms).all():
        where = _located(np.argwhere(~np.isfinite(norms))[0], None)
        raise ValueError(f"{where} has a norm that overflows float64")
    a /= norms[..., None, :]
    return a


def _draw(out, seed, t_max=None):
    """Fill the m x n array ``out`` from ``seed``: standard normals in C
    order, plus one offset ``U[0, t_max]`` per column when ``t_max`` is
    given (the hybrid family).  ``out`` may be a slice of a stack."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=out)
    if t_max is not None:
        out += rng.uniform(0.0, t_max, out.shape[1])
    return out


def gaussian(m, n, seed):
    """Columns drawn i.i.d. N(0, I) and normalized."""
    a = _normalize(_draw(np.empty((m, n)), seed))
    return Dictionary(a, "gaussian", {"m": m, "n": n}, seed)


def hybrid(m, n, t_max, seed):
    """Gaussian columns with a random constant offset, then normalized.

    Atom i is ``g_i + t_i * ones`` with ``t_i ~ U[0, t_max]``.  Large
    ``t_max`` makes the atoms nearly collinear with the all-ones vector,
    which is the regime where the two greedy selection rules separate.
    ``t_max = 0`` reproduces :func:`gaussian` exactly (same draw order).
    A non-finite ``t_max`` raises ``ValueError``.
    """
    a = _normalize(_draw(np.empty((m, n)), seed, _finite("t_max", t_max)))
    return Dictionary(a, "hybrid", {"m": m, "n": n, "t_max": t_max}, seed)


def _pulse_shape(n, sigma, downsample):
    """Pulse length ``ceil(6 sigma)``, decimation and row count of
    ``convolutive(n, sigma, downsample)``, its parameters checked."""
    if _finite("sigma", sigma) <= 0:
        raise ValueError("sigma must be positive")
    d = int(downsample)
    if d < 1:
        raise ValueError("downsample must be >= 1")
    length = ceil(6 * sigma)
    return length, d, -(-(n + length - 1) // d)


def convolutive(n, sigma, downsample=1):
    """Shifted, sampled Gaussian pulses, optionally keeping every
    ``downsample``-th output row.

    The pulse ``exp(-t**2 / (2 sigma**2))`` is sampled on an integer
    grid of length ``L = ceil(6 sigma)`` centered on zero.  The full
    convolution matrix has ``n + L - 1`` rows; row decimation keeps rows
    ``0, downsample, 2*downsample, ...`` and makes the dictionary
    overcomplete for ``downsample > 1``.  Columns are normalized;
    decimation that leaves an atom with no nonzero sample raises
    :class:`EmptyAtomError`.  A non-finite ``sigma`` raises
    ``ValueError``.
    """
    length, d, rows = _pulse_shape(n, sigma, downsample)
    grid = np.arange(length) - length // 2
    pulse = np.exp(-(grid**2) / (2.0 * sigma**2))

    # sample o of atom j sits on full-matrix row j + o, which is kept
    # when d divides it
    a = np.zeros((rows, n))
    o, j = np.nonzero((np.arange(length)[:, None] + np.arange(n)) % d == 0)
    a[(j + o) // d, j] = pulse[o]
    _normalize(a)
    return Dictionary(
        a, "convolutive", {"n": n, "sigma": sigma, "downsample": d}, None
    )


def example1(theta1, theta2):
    """Four unit atoms in R^3 split in two symmetric pairs.

    The pair (a1, a2) opens by theta1 around e1 in the (e1, e2) plane,
    the pair (a3, a4) by theta2 around e2 in the (e2, e3) plane.  Small
    theta1 makes the first pair nearly collinear, which is the classic
    setting where a correct partial selection can still be abandoned.
    A non-finite angle raises ``ValueError``.
    """
    _finite("theta1", theta1)
    _finite("theta2", theta2)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    a = np.array(
        [
            [c1, c1, 0.0, 0.0],
            [-s1, s1, c2, c2],
            [0.0, 0.0, s2, -s2],
        ]
    )
    return Dictionary(a, "example1", {"theta1": theta1, "theta2": theta2}, None)


_RANDOM = ("gaussian", "hybrid")  # the families that read m, n and a seed


def _check_sizes(kind, m, n):
    if kind in _RANDOM and not (m > 0 and n > 0):
        raise ValueError(f"{kind} needs --m and --n positive")


def _build(spec, m, n, seed):
    """The dictionary of family ``spec.dictionary``.

    The one registry behind the command line and the experiments:
    ``spec`` carries the family parameters as attributes (a parsed
    command line or an experiment configuration), while the sizes and
    the seed come apart because the experiment grids vary them.  Row
    and atom counts must be positive where the family reads them;
    ``example1`` reads the angles ``theta1``/``theta2``, which only the
    command line carries.
    """
    kind = spec.dictionary
    _check_sizes(kind, m, n)
    if kind == "gaussian":
        return gaussian(m, n, seed)
    if kind == "hybrid":
        return hybrid(m, n, spec.t_max, seed)
    if kind == "convolutive":
        if not n > 0:
            raise ValueError("convolutive needs --n positive")
        return convolutive(n, spec.sigma, spec.downsample)
    if kind == "example1" and hasattr(spec, "theta1"):
        return example1(spec.theta1, spec.theta2)
    raise ValueError(f"unknown dictionary kind: {kind!r}")


def _rows(spec, m, n):
    """Row count of every ``_build(spec, m, n, seed)``, without building
    one: ``m``, except for the convolutive family, whose rows follow
    from the pulse."""
    if spec.dictionary == "convolutive":
        return _pulse_shape(n, spec.sigma, spec.downsample)[2]
    return m


def _stack(spec, m, n, seeds):
    """``_build(spec, m, n, seed).matrix`` for each seed of ``seeds``, as
    one ``(T, rows, n)`` array.

    A random family draws each seed, in order, straight into its slice
    (:func:`_draw`) and the whole stack is normalized in one pass, so
    every slice has the bits of its single-matrix build.  A seedless
    family is built once and repeated, as a read-only view.
    """
    kind = spec.dictionary
    if kind not in _RANDOM:
        a = _build(spec, m, n, None).matrix
        return np.broadcast_to(a, (len(seeds),) + a.shape)
    _check_sizes(kind, m, n)
    t_max = _finite("t_max", spec.t_max) if kind == "hybrid" else None
    stack = np.empty((len(seeds), m, n))
    for a, seed in zip(stack, seeds):
        _draw(a, seed, t_max)
    return _normalize(stack)
