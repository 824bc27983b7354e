"""Dictionary generators used by the certificates and experiments.

All generators return a :class:`Dictionary` whose matrix has unit-norm
columns.  Randomized generators take an explicit integer seed and are
bit-reproducible (PCG64 generator).  Each generator builds its matrix
in one array and normalizes it in place (:func:`_normalize`), so
generation holds about one matrix of memory: a larger peak would make
the allocator hand the pages back after every trial of an experiment
and fault them in again for the next.  The command line and the
experiments name a family and build it through one registry,
:func:`_build`.
"""

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .exceptions import EmptyAtomError

__all__ = [
    "Dictionary",
    "gaussian",
    "hybrid",
    "convolutive",
    "example1",
    "from_matrix",
]


@dataclass(frozen=True)
class Dictionary:
    matrix: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


def _finite(name, value):
    """``value`` as a float; NaN and infinities raise ``ValueError``."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _normalize(a):
    """Divide the columns of ``a`` by their norms, in place.

    The norms are the bits of ``np.linalg.norm(a, axis=0)``.  On a
    C-ordered matrix of several columns, which every generator draws,
    ``norm`` adds the squares row by row, and one ``einsum`` pass adds
    them in that order without forming the squared copy of ``a``; a
    single column or another layout is summed pairwise, so it keeps
    ``norm``.  Zero and overflowing norms raise.
    """
    if a.flags.c_contiguous and a.shape[1] > 1:
        norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    else:
        norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise EmptyAtomError(f"column {int(np.argmin(norms))} is identically zero")
    if not np.isfinite(norms).all():
        i = int(np.argmin(np.isfinite(norms)))
        raise ValueError(f"column {i} has a norm that overflows float64")
    a /= norms
    return a


def gaussian(m, n, seed):
    """Columns drawn i.i.d. N(0, I) and normalized."""
    rng = np.random.default_rng(seed)
    a = _normalize(rng.standard_normal((m, n)))
    a.setflags(write=False)
    return Dictionary(a, "gaussian", {"m": m, "n": n}, seed)


def hybrid(m, n, t_max, seed):
    """Gaussian columns with a random constant offset, then normalized.

    Atom i is ``g_i + t_i * ones`` with ``t_i ~ U[0, t_max]``.  Large
    ``t_max`` makes the atoms nearly collinear with the all-ones vector,
    which is the regime where the two greedy selection rules separate.
    ``t_max = 0`` reproduces :func:`gaussian` exactly (same draw order).
    A non-finite ``t_max`` raises ``ValueError``.
    """
    _finite("t_max", t_max)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    a += rng.uniform(0.0, t_max, n)
    _normalize(a)
    a.setflags(write=False)
    return Dictionary(a, "hybrid", {"m": m, "n": n, "t_max": t_max}, seed)


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
    if _finite("sigma", sigma) <= 0:
        raise ValueError("sigma must be positive")
    d = int(downsample)
    if d < 1:
        raise ValueError("downsample must be >= 1")
    length = ceil(6 * sigma)
    grid = np.arange(length) - length // 2
    pulse = np.exp(-(grid**2) / (2.0 * sigma**2))

    # sample o of atom j sits on full-matrix row j + o, which is kept
    # when d divides it
    m_full = n + length - 1
    a = np.zeros((-(-m_full // d), n))
    o, j = np.nonzero((np.arange(length)[:, None] + np.arange(n)) % d == 0)
    a[(j + o) // d, j] = pulse[o]
    _normalize(a)
    a.setflags(write=False)
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
    a.setflags(write=False)
    return Dictionary(a, "example1", {"theta1": theta1, "theta2": theta2}, None)


def from_matrix(matrix, kind="custom", params=None, normalize=False):
    """Wrap an explicit matrix, optionally normalizing its columns.

    Raises ``ValueError`` when an entry is NaN or infinite.
    """
    a = np.array(matrix, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if normalize:
        _normalize(a)
    a.setflags(write=False)
    return Dictionary(a, kind, dict(params or {}), None)


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
    if kind in ("gaussian", "hybrid") and not (m > 0 and n > 0):
        raise ValueError(f"{kind} needs --m and --n positive")
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
