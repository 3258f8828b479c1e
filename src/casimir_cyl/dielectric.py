r"""Dielectric permittivity along the imaginary frequency axis.

Five material descriptions are supported, expressed as a tagged union of
frozen dataclasses (``PermittivityModel``):

* ``IdealMetal`` -- perfect reflector, no finite-frequency response,
* ``Drude(omega_p, gamma)`` -- :math:`\varepsilon(i\xi) = 1 +
  \omega_p^2/(\xi(\xi+\gamma))`, dissipative low-frequency continuation,
* ``PlasmaOscillators(omega_p, oscillators)`` -- dissipationless
  :math:`1 + \omega_p^2/\xi^2` plus optional core-electron oscillators
  :math:`g_j/(\omega_j^2 + \xi^2 + \gamma_j\xi)`,
* ``Dielectric(eps0)`` -- static permittivity (no dispersion in scope),
* ``Tabulated(table, tail)`` -- Im eps from measured optical data, carried to
  the imaginary axis through the dispersion integral

  .. math::
     \varepsilon(i\xi) = 1 + \frac{2}{\pi}\int_0^\infty
        \frac{\omega\,\mathrm{Im}\,\varepsilon(\omega)}{\omega^2+\xi^2}
        \,d\omega,

  with the Drude ``tail`` form below the table range (the practically
  important end), log-log interpolation inside it, and zero above it.

All energies are in eV.  Models are immutable.  An ``OpticalTable`` builds its
quadrature nodes at construction and, on first use, one piece of eps(i xi)
per binary exponent of xi: its values at 24 nodes, each checked against a
half-order rule when it is built (see :func:`kk_transform`).  Where eps(i xi)
is not a finite float, the Drude, plasma and tabulated models raise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .constants import HBAR_C_EV_NM
from .quadrature import gauss_legendre

__all__ = [
    "Drude", "Oscillator", "PlasmaOscillators", "Dielectric", "IdealMetal",
    "OpticalTable", "OpticalTableError", "Tabulated", "PermittivityModel",
    "ZeroFreqBehavior",
    "eps_imag_axis", "kk_transform", "zero_frequency_character",
    "load_optical_table", "gold_drude",
]


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _checked_xi(xi) -> np.ndarray:
    """xi as a float array, every element positive and finite, else ValueError."""
    xi = np.asarray(xi, dtype=float)
    if not np.all((xi > 0.0) & (xi < math.inf)):
        raise ValueError("xi must be positive and finite")
    return xi


@dataclass(frozen=True)
class Drude:
    """Drude metal: plasma frequency and relaxation parameter in eV."""

    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        _check_positive("Drude omega_p", self.omega_p)
        _check_positive("Drude gamma", self.gamma)


def gold_drude() -> Drude:
    """Default Au parameters: omega_p = 9.0 eV, gamma = 0.035 eV."""
    return Drude(omega_p=9.0, gamma=0.035)


@dataclass(frozen=True)
class Oscillator:
    """One core-electron oscillator: strength g (eV^2), resonance, width (eV)."""

    g: float
    omega: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        # g >= 0 keeps eps(i xi) >= 1 for every model
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise ValueError("oscillator strength g must be finite and nonnegative, "
                             f"got {self.g}")
        _check_positive("oscillator resonance omega", self.omega)
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("oscillator width gamma must be finite and nonnegative, "
                             f"got {self.gamma}")


@dataclass(frozen=True)
class PlasmaOscillators:
    """Dissipationless plasma response plus optional oscillator terms.

    An empty oscillator list is the simple plasma model, which is the shipped
    default for the plasma approach; fitted oscillator parameters may be
    supplied through the configuration file.
    """

    omega_p: float
    oscillators: tuple[Oscillator, ...] = ()

    def __post_init__(self) -> None:
        _check_positive("plasma frequency omega_p", self.omega_p)
        object.__setattr__(self, "oscillators", tuple(self.oscillators))


@dataclass(frozen=True)
class Dielectric:
    """Static dielectric with permittivity eps0 > 1 at zero frequency."""

    eps0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps0) and self.eps0 > 1.0):
            raise ValueError(f"static permittivity eps0 must be finite and exceed 1, "
                             f"got {self.eps0}")

    @property
    def r0(self) -> float:
        """Zero-frequency TM reflection (eps0 - 1)/(eps0 + 1)."""
        return (self.eps0 - 1.0) / (self.eps0 + 1.0)


@dataclass(frozen=True)
class IdealMetal:
    """Perfectly reflecting boundary: r_TM^2 = r_TE^2 = 1 at all frequencies."""


class OpticalTableError(ValueError):
    """Malformed optical-data input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# Dispersion-integral nodes.  Each table segment is a power law Im eps ~
# omega**s, cut into equal sub-segments in ln omega that each carry a
# _RULE_NODES-point Gauss-Legendre rule and a _PROBE_NODES-point probe.  Over a
# segment the log of the integrand omega**2 Im eps / (omega**2 + xi**2) changes
# by at most width * max(|s|, |s + 2|), whatever xi.  A sub-segment is at most
# _LN_STEP wide and takes at most _SLOPE_SCALE * _LN_STEP = 0.07 of that
# change.  On an exponential changing by 0.07 the probe misses by 0.07**4/4320
# = 5.6e-9 relative, 1.8x under the 1e-8 check in kk_transform; the 4-point
# rule by 3e-19, the 3-point by 6e-14.  Measured over xi in [1e-4, 1e3] eV: the
# 4-point rule is within 2.2e-16 of an 8-point rule on the benchmark table;
# the probe gap is 1.3e-10 there and at most 2.9e-9 on tables whose
# rows are scaled by random factors up to [0.1, 10] (|slope| up to ~1300).
# _MAX_SUBSEGMENTS (a jump of ~e**9 in Im eps between rows) bounds the memory
# a pathological table takes; such a table is left to the check.
_LN_STEP = 0.02
_SLOPE_SCALE = 3.5
_RULE_NODES, _PROBE_NODES = 4, 2
_MAX_SUBSEGMENTS = 128

# Pieces of eps(i xi), one per binary exponent: xi = f 2**e (np.frexp, f in
# [0.5, 1)) is read at the exact u = 4 f - 3 from row e - _PIECE_LO, which
# holds eps at xi_j = f_j 2**e, u_j = 4 f_j - 3 at _PIECE_POINTS first-kind
# Chebyshev points.  The singularities of eps in xi (the node sum's poles at
# +-i omega_j, the Drude tail's pole at 0 and cut) lie on the imaginary axis,
# Re u = -3 on every binade, so the interpolant converges like (3 + 2
# sqrt 2)**-n for any table and tail (Trefethen, ATAP ch. 8): 1.1e-15 at
# n = 24.  From 5e-324 (e = -1073) to the largest float (e = 1024): _PIECE_ROWS.
_PIECE_POINTS = 24
_PIECE_LO = -1073
_PIECE_ROWS = 1024 - _PIECE_LO + 1
_CHEB_THETA = (np.arange(_PIECE_POINTS) + 0.5) * (math.pi / _PIECE_POINTS)
_NODE_F = 0.25 * (np.cos(_CHEB_THETA) + 3.0)
_NODE_U = 4.0 * _NODE_F - 3.0  # exact: where the rounded nodes sit
_BARY_W = np.where(np.arange(_PIECE_POINTS) % 2, -1.0, 1.0) * np.sin(_CHEB_THETA)


class OpticalTable:
    """Ordered (photon energy, Im eps) samples with cached quadrature nodes.

    The nodes are built at construction.  The pieces of eps(i xi) that
    :func:`kk_transform` reads are built on first use, one per binary
    exponent of xi that a call touches and per Drude tail the table is used
    with, and kept for every later call: each is checked against the
    half-order probe at its nodes when it is built, and a piece that fails,
    or whose values are not all finite, is not kept.

    Parameters
    ----------
    omega : sequence of float
        Photon energies in eV, finite, strictly ascending, at least two entries.
    im_eps : sequence of float
        Corresponding Im eps values, all positive and finite.
    """

    def __init__(self, omega: Sequence[float], im_eps: Sequence[float]):
        w = np.array(omega, dtype=float)
        g = np.array(im_eps, dtype=float)
        if w.ndim != 1 or w.shape != g.shape or w.size < 2:
            raise OpticalTableError("need two same-length columns with at least 2 rows")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(g))):
            raise OpticalTableError("photon energies and Im eps values must be finite")
        if np.any(w <= 0.0):
            raise OpticalTableError("photon energies must be positive")
        if np.any(np.diff(w) <= 0.0):
            raise OpticalTableError("photon energies must be strictly ascending")
        if np.any(g <= 0.0):
            raise OpticalTableError("Im eps values must be positive")
        w.flags.writeable = g.flags.writeable = False
        self.omega = w
        self.im_eps = g
        self.omega_min = float(w[0])
        self.omega_max = float(w[-1])
        self._build_nodes()
        # per Drude tail: (values, built) over the _PIECE_ROWS pieces
        self._pieces: dict[Drude, tuple[np.ndarray, np.ndarray]] = {}

    def _build_nodes(self) -> None:
        # log-log power law on each table segment, split into sub-segments
        # whose edges are those np.linspace gives per segment; the nodes are
        # stored as omega**2 with premultiplied weights, all read-only
        ln_w = np.log(self.omega)
        ln_g = np.log(self.im_eps)
        width = np.diff(ln_w)
        rise = np.diff(ln_g)
        slope = rise / width
        # |rise + width| + width = width * max(|slope|, |slope + 2|)
        span = np.maximum(width, (np.abs(rise + width) + width) / _SLOPE_SCALE)
        nsub = np.clip(np.ceil(span / _LN_STEP), 1, _MAX_SUBSEGMENTS).astype(np.int64)
        seg = np.repeat(np.arange(width.size), nsub)  # segment of each sub-segment
        j = np.arange(seg.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        step = width[seg] / nsub[seg]
        lo = j * step + ln_w[seg]
        hi = np.where(j + 1 == nsub[seg], ln_w[seg + 1], (j + 1) * step + ln_w[seg])
        centers = 0.5 * (lo + hi)
        halves = 0.5 * (hi - lo)
        nodes = []
        for pts, wts in (gauss_legendre(_RULE_NODES), gauss_legendre(_PROBE_NODES)):
            ln_pts = (centers[:, None] + halves[:, None] * pts[None, :]).ravel()
            w_pts = (halves[:, None] * wts[None, :]).ravel()
            at = np.repeat(seg, pts.size)
            om = np.exp(ln_pts)
            gval = np.exp(ln_g[at] + slope[at] * (ln_pts - ln_w[at]))
            # premultiplied weight: w * omega * ImEps(omega) (log-space Jacobian)
            wt = w_pts * om * om * gval
            om2 = om * om
            om2.flags.writeable = wt.flags.writeable = False
            nodes.append((om2, wt))
        (self._om2, self._wt), (self._om2_probe, self._wt_probe) = nodes

    def dispersion_integral(self, xi) -> np.ndarray:
        """In-range part of (2/pi) * integral omega ImEps / (omega^2 + xi^2).

        Returns a 1-D array, one value per element of ``xi`` (flattened): with
        1 and the Drude tail, eps at the nodes of :func:`kk_transform`'s pieces.
        """
        return _node_sum(self._om2, self._wt, xi)

    def dispersion_integral_coarse(self, xi) -> np.ndarray:
        """Half-order companion of :meth:`dispersion_integral` (error probe)."""
        return _node_sum(self._om2_probe, self._wt_probe, xi)

    def _piece_values(self, tail: Drude, rows: np.ndarray) -> np.ndarray:
        """eps at the nodes of the pieces at ``rows``, one row each, building
        the missing ones first.  Two threads may build one piece twice; both
        write the same bits."""
        if tail not in self._pieces:  # 403 kB at most
            self._pieces[tail] = (np.zeros((_PIECE_ROWS, _PIECE_POINTS)),
                                  np.zeros(_PIECE_ROWS, dtype=bool))
        values, built = self._pieces[tail]
        missing = ~built[rows]
        if missing.any():
            wanted = np.zeros_like(built)  # np.unique would import numpy.ma
            wanted[rows[missing]] = True
            new = np.flatnonzero(wanted)
            values[new] = self._build_pieces(tail, new)
            built[new] = True
        return values[rows]

    def _build_pieces(self, tail: Drude, rows: np.ndarray) -> np.ndarray:
        """eps at the nodes of the pieces at ``rows`` from the node sums, each
        checked at its nodes; raises ValueError naming the worst node."""
        xi = np.ldexp(_NODE_F, (rows + _PIECE_LO)[:, None]).ravel()
        rule = self.dispersion_integral(xi)
        with np.errstate(over="ignore", divide="ignore"):  # checked next
            low = _drude_tail_integral(tail, self.omega_min, xi)
        result = 1.0 + low + rule
        lost = ~np.isfinite(result) | (xi < np.finfo(float).tiny)  # subnormal: off its u_j
        if lost.any():
            raise ValueError(f"eps(i xi) of the table overflows or xi is subnormal "
                             f"at xi = {xi[lost].max():.6g} eV")
        gap = np.abs(result - (1.0 + low + self.dispersion_integral_coarse(xi)))
        bad = gap > 1e-8 * np.abs(result)
        if bad.any():
            rel = np.where(bad, gap / np.abs(result), -1.0)
            worst = np.argmax(rel)
            raise OpticalTableError(
                f"dispersion integral failed its accuracy check at xi = {xi[worst]:.6g} eV: "
                f"rule and probe differ by {rel[worst]:.3g} of eps, over the 1e-8 bound")
        return result.reshape(rows.size, _PIECE_POINTS)


# xi values per block of the dispersion sums: bounds the (block x nodes)
# temporaries, so the memory held does not grow with the batch
_XI_BLOCK = 16


def _node_sum(om2: np.ndarray, wt: np.ndarray, xi) -> np.ndarray:
    """(2/pi) * sum_j wt_j / (om2_j + xi^2) for each element of xi, flattened."""
    xi = np.asarray(xi, dtype=float).ravel()
    out = np.empty(xi.size)
    for i in range(0, xi.size, _XI_BLOCK):
        x = xi[i:i + _XI_BLOCK]
        with np.errstate(over="ignore"):  # xi^2 = inf: each term is 0, as it should be
            terms = np.add.outer(x * x, om2)
        np.divide(wt, terms, out=terms)
        out[i:i + _XI_BLOCK] = (2.0 / math.pi) * terms.sum(axis=1)
    return out


@dataclass(frozen=True)
class Tabulated:
    """Optical-data model: table plus Drude parameters for the low-omega tail."""

    table: OpticalTable
    tail: Drude


PermittivityModel = Union[IdealMetal, Drude, PlasmaOscillators, Dielectric, Tabulated]


# ---------------------------------------------------------------------------
# zero-frequency behavior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroFreqBehavior:
    """The reflection channels that survive at zero frequency, for one separation.

    ``log_r2`` holds ln r^2 of each channel whose zero-frequency reflection is
    constant: (0, 0) for the ideal metal, (0,) for the Drude-like TM channel,
    (2 ln r0,) for a static dielectric's.  ``alpha`` = delta_0/(2a) adds the
    plasma TE channel, whose r^2 falls from 1 as alpha v grows.
    """

    log_r2: tuple[float, ...]
    alpha: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_r2", tuple(self.log_r2))
        if not self.log_r2 and self.alpha is None:
            raise ValueError("log_r2 is empty and alpha is None: no channel survives")
        if not all(math.isfinite(c) and c <= 0.0 for c in self.log_r2):
            raise ValueError(f"log_r2 must be finite and <= 0 (r^2 <= 1), got {self.log_r2}")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be None or finite and >= 0, got {self.alpha}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def static_permittivity(model: PermittivityModel) -> float | None:
    """eps(i xi) of a model whose permittivity does not depend on xi, else None.

    ``IdealMetal`` is the infinite-permittivity limit, +inf at every xi (where
    ``log_r2_pair`` gives ln r^2 = 0), and ``Dielectric`` responds with eps0
    at every frequency.
    """
    if isinstance(model, IdealMetal):
        return math.inf
    if isinstance(model, Dielectric):
        return model.eps0
    return None


def eps_imag_axis(model: PermittivityModel, xi):
    """Permittivity eps(i xi) for xi > 0 in eV; scalar or ndarray of any shape.

    Every model has one, constant in xi where :func:`static_permittivity` says so.
    """
    if isinstance(model, Tabulated):
        return kk_transform(model.table, model.tail, xi)
    scalar = np.ndim(xi) == 0
    xi = np.atleast_1d(_checked_xi(xi))
    static = static_permittivity(model)
    with np.errstate(over="ignore", divide="ignore"):  # a non-finite eps raises below
        if static is not None:
            out = np.full(xi.shape, static)
        elif isinstance(model, Drude):
            out = 1.0 + model.omega_p**2 / (xi * (xi + model.gamma))
        elif isinstance(model, PlasmaOscillators):
            out = 1.0 + model.omega_p**2 / xi**2
            for osc in model.oscillators:
                out = out + osc.g / (osc.omega**2 + xi**2 + osc.gamma * xi)
        else:
            raise TypeError(f"unknown permittivity model {type(model).__name__}")
    if static is None and not np.all(np.isfinite(out)):
        raise ValueError(f"eps(i xi) overflows at xi = {xi[~np.isfinite(out)].max():.6g} eV")
    return float(out[0]) if scalar else out


def _drude_tail_integral(tail: Drude, omega_hi: float, xi: np.ndarray) -> np.ndarray:
    """(2/pi) * int_0^omega_hi  omega ImEpsDrude / (omega^2 + xi^2) domega, closed form.

    ImEpsDrude(omega) = omega_p^2 gamma / (omega (omega^2 + gamma^2)).
    """
    wp2g = tail.omega_p**2 * tail.gamma
    g = tail.gamma
    # The partial fractions wp2g (h(g) - h(xi))/(xi^2 - g^2), h(y) = atan(omega_hi/y)/y,
    # cancel as xi -> g.  atan(a) - atan(b) = atan((a - b)/(1 + a b)), true for a, b > 0,
    # turns the divided difference into (h(g) - h(xi))/(xi - g)
    # = (c atan(z)/z + atan(omega_hi/g)/g)/xi, with c = omega_hi/(xi g + omega_hi^2) and
    # z = c (xi - g): a sum of two positive terms at every xi, so nothing cancels.
    # past xi ~ 1e154 a product overflows to inf, which takes the tail to its limit 0
    with np.errstate(over="ignore"):
        c = omega_hi / (xi * g + omega_hi**2)
        denom = xi * (xi + g)
    z = c * (xi - g)
    atan_ratio = np.divide(np.arctan(z), z, out=np.ones_like(z), where=z != 0.0)
    out = wp2g * (c * atan_ratio + math.atan(omega_hi / g) / g) / denom
    return (2.0 / math.pi) * out


def kk_transform(table: OpticalTable, tail: Drude, xi):
    """Dispersion integral carrying tabulated Im eps to the imaginary axis.

    Below ``table.omega_min`` the Drude ``tail`` form is integrated in closed
    form, inside the table range the cached log-log interpolation nodes are
    summed, and above ``table.omega_max`` the data are taken as zero (only
    the low-frequency extrapolation matters in practice).  eps(i xi) is read
    by the barycentric formula (Berrut and Trefethen, SIAM Rev. 46, 2004)
    from the piece of its binary exponent, built from these on first use:
    within 1e-14 of the exact sums, and exact at a node.  A piece is kept
    only if eps is finite at each node (else ValueError) and the node sum
    there is within 1e-8 of eps of a half-order rule (else
    :class:`OpticalTableError`).
    """
    xi = _checked_xi(xi)
    f, e = np.frexp(xi.ravel())
    values = table._piece_values(tail, e - _PIECE_LO)
    # values relative to the first node's, so that no product in the read overflows
    rel, at_node = barycentric_read((values - values[:, :1]) / values[:, :1], f)
    result = values[:, 0] + values[:, 0] * rel
    hit = np.isnan(result)
    result[hit] = values[hit][at_node[hit]]
    return float(result[0]) if xi.ndim == 0 else result.reshape(xi.shape)


def barycentric_read(values, f):
    """Pieces read at u = 4 f - 3, one row per element of ``f``, by the
    barycentric formula with the pieces' first-kind Chebyshev weights.

    ``values`` holds the node values, shape (f.size, _PIECE_POINTS) or one
    piece's (_PIECE_POINTS,) for every f.  Returns the reads, NaN at an
    exact node hit, and the (f.size, _PIECE_POINTS) mask of the node each
    row hits, so that the caller returns its stored value there.
    """
    dist = np.subtract.outer(4.0 * f - 3.0, _NODE_U)
    with np.errstate(divide="ignore", invalid="ignore"):  # an exact node hit gives nan
        c = _BARY_W / dist
        return (c * values).sum(axis=1) / c.sum(axis=1), dist == 0.0


def zero_frequency_character(model: PermittivityModel, a: float) -> ZeroFreqBehavior:
    """The zero-frequency reflection channels of a model at separation a (m).

    Drude and tabulated models lose the TE channel entirely; the plasma model
    keeps it with strength set by alpha = delta_0/(2a), delta_0 = c/omega_p.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"separation must be positive and finite, got {a}")
    if isinstance(model, IdealMetal):
        return ZeroFreqBehavior((0.0, 0.0))
    if isinstance(model, (Drude, Tabulated)):
        return ZeroFreqBehavior((0.0,))
    if isinstance(model, PlasmaOscillators):
        delta0_m = HBAR_C_EV_NM / model.omega_p * 1e-9  # skin depth c/omega_p
        return ZeroFreqBehavior((0.0,), alpha=delta0_m / (2.0 * a))
    if isinstance(model, Dielectric):
        return ZeroFreqBehavior((2.0 * math.log(model.r0),))
    raise TypeError(f"unknown permittivity model {type(model).__name__}")


def load_optical_table(path) -> OpticalTable:
    """Read optical data from a text file.

    Each non-comment line is either ``omega_eV  im_eps`` or
    ``omega_eV  n  k`` (three columns; Im eps = 2 n k is formed on ingestion).
    Lines starting with ``#`` are ignored.  Rows must be ascending in omega.

    Raises
    ------
    OpticalTableError
        With the 1-based line number of the first malformed row.
    """
    omegas: list[float] = []
    ims: list[float] = []
    ncols: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise OpticalTableError(
                    f"expected 2 or 3 columns, found {len(parts)}", lineno)
            if ncols is None:
                ncols = len(parts)
            elif len(parts) != ncols:
                raise OpticalTableError(
                    f"inconsistent column count ({len(parts)} vs {ncols})", lineno)
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise OpticalTableError(f"non-numeric field in {parts!r}", lineno)
            if not all(math.isfinite(x) for x in values):
                raise OpticalTableError(f"non-finite field in {parts!r}", lineno)
            omega = values[0]
            im = values[1] if ncols == 2 else 2.0 * values[1] * values[2]
            if omega <= 0.0:
                raise OpticalTableError("photon energy must be positive", lineno)
            if omegas and omega <= omegas[-1]:
                raise OpticalTableError("photon energies must be ascending", lineno)
            if not (math.isfinite(im) and im > 0.0):  # 2 n k may overflow
                raise OpticalTableError("Im eps must be positive and finite", lineno)
            omegas.append(omega)
            ims.append(im)
    if len(omegas) < 2:
        raise OpticalTableError("need at least 2 data rows")
    return OpticalTable(omegas, ims)
