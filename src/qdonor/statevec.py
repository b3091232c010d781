"""Dense mixed-radix state-vector engine.

A :class:`Register` holds the joint state of a donor nucleus (treated as a
d-level qudit), the bound electron, and any photonic time-bin qudits emitted
so far.  Amplitudes are stored as a complex ndarray with one axis per
subsystem, so gates reduce to axis-wise tensor contractions and slicing.
The axes carry no role labels: the subsystem order is the layout, and each
gate takes the axes it acts on.

Conventions
-----------
* Donor levels count down from the topmost projection: level 0 is |7/2>,
  level 1 is |5/2>, and so on.
* Electron level 0 is spin-down, level 1 is spin-up.
* A finished photon is a d-level subsystem whose level k means "the single
  photon sits in time-bin k".  While a photon is still being emitted it
  carries one extra level (index d) representing the vacuum; call
  :func:`finalize_photon` after the last bin to contract it away.

Gates
-----
The four pulse primitives, :func:`apply_permutation`,
:func:`apply_conditional_flip`, :func:`apply_emission` and
:func:`apply_cz_power`, update ``reg.amps`` in place, keep its memory layout
and return None.  :func:`apply_fourier` and :func:`apply_pauli_power`
allocate anyway, so they return a new register and leave their input alone.

The readout is :func:`outcome_probabilities` and :func:`collapse`, which
consumes the measured axis; the caller chooses the levels to follow.  A
register grows only in :func:`add_photon`, and ``protocols.execute`` checks
a program's growth against the amplitude cap before its first gate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

DEFAULT_AMPLITUDE_CAP = 2**25
NORM_ATOL = 1e-10
# an outcome at or below this probability is treated as impossible
ZERO_PROBABILITY = 1e-14

ELECTRON_DOWN = 0
ELECTRON_UP = 1


class CapacityError(RuntimeError):
    """Raised when an operation would exceed the amplitude cap."""


class Register:
    """Mixed-radix state vector: one axis per subsystem, so its radices are
    the amplitude array's shape."""

    def __init__(self, amps):
        self.amps = np.asarray(amps, dtype=np.complex128)
        if any(r < 2 for r in self.amps.shape):
            raise ValueError(f"every radix must be >= 2, got {self.radices}")

    @property
    def radices(self):
        return self.amps.shape

    @property
    def n_subsystems(self):
        return self.amps.ndim

    @property
    def size(self):
        return int(self.amps.size)

    def copy(self):
        return Register(self.amps.copy())

    def __repr__(self):
        return f"Register(radices={self.radices})"


def init_register(radices, basis_index, cap=DEFAULT_AMPLITUDE_CAP):
    """Unit amplitude on one product basis state."""
    radices = tuple(int(r) for r in radices)
    basis_index = tuple(int(k) for k in basis_index)
    if len(basis_index) != len(radices):
        raise ValueError("basis_index length must match radices")
    for k, r in zip(basis_index, radices):
        if not 0 <= k < r:
            raise IndexError(f"basis index {k} out of range for radix {r}")
    size = math.prod(radices)
    if size > cap:
        raise CapacityError(f"register of {size} amplitudes exceeds cap {cap}")
    amps = np.zeros(radices, dtype=np.complex128)
    amps[basis_index] = 1.0
    return Register(amps)


# -- single-subsystem unitaries -----------------------------------------


@functools.cache
def fourier_matrix(d):
    """F_d with entries omega^{jk} / sqrt(d); built once per d, read-only."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    f = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    f.setflags(write=False)
    return f


def apply_fourier(reg, subsystem):
    """Qudit Fourier gate F_d on every level of one subsystem."""
    new = np.tensordot(fourier_matrix(reg.radices[subsystem]), reg.amps,
                       axes=([1], [subsystem]))
    return Register(np.moveaxis(new, 0, subsystem))


@functools.cache
def _shift_index(d, shift):
    """Source levels of X^shift on a d-level axis, (k - shift) mod d for
    each k; built once per (d, shift), read-only."""
    idx = (np.arange(d) - shift) % d
    idx.setflags(write=False)
    return idx


@functools.cache
def _z_diagonal(ndim, axis, d, power):
    """The diagonal of Z^power, power in [0, d), shaped to broadcast on
    ``axis`` of an ndim-axis array; built once per key, read-only."""
    shape = [1] * ndim
    shape[axis] = d
    phases = np.exp(2j * np.pi * power * np.arange(d) / d).reshape(shape)
    phases.setflags(write=False)
    return phases


def _roll(amps, axis, shift):
    """``np.roll(amps, shift, axis)``, bit for bit and in the input's memory
    layout, as a gather through the cached shift index.

    ``take`` fills an ``out`` that is not C-ordered through a temporary copy,
    several times slower than the gather itself, so on a transposed register
    it runs on the axis permutation that makes ``out`` C-ordered; with
    ``mode="raise"`` it would buffer ``out`` every time.
    """
    d = amps.shape[axis]
    out = np.empty_like(amps)
    src, dst = amps, out
    if not out.flags.c_contiguous:
        order = sorted(range(amps.ndim), key=lambda ax: -out.strides[ax])
        src, dst = amps.transpose(order), out.transpose(order)
        axis = order.index(axis)
    np.take(src, _shift_index(d, int(shift) % d), axis=axis, out=dst,
            mode="wrap")
    return out


def _z_phases(reg, subsystem, power):
    """The diagonal of Z^p on one subsystem, shaped to broadcast on reg;
    cached, so read-only."""
    d = reg.radices[subsystem]
    return _z_diagonal(reg.n_subsystems, subsystem, d, int(power) % d)


def apply_pauli_power(reg, subsystem, kind, power):
    """Generalized Pauli X^p or Z^p on one subsystem."""
    d = reg.radices[subsystem]
    power = int(power) % d
    if kind == "X":
        if power == 0:
            return reg.copy()
        return Register(_roll(reg.amps, subsystem, power))
    if kind == "Z":
        return Register(reg.amps * _z_phases(reg, subsystem, power))
    raise ValueError(f"unknown Pauli kind {kind!r} (expected 'X' or 'Z')")


def _at(ndim, *fixed):
    """Index fixing the given (axis, level) pairs; every other axis whole."""
    idx = [slice(None)] * ndim
    for axis, level in fixed:
        idx[axis] = level
    return tuple(idx)


def _swap(amps, a, b):
    """Exchange the disjoint slices ``amps[a]`` and ``amps[b]`` in place."""
    held = amps[a].copy()
    amps[a] = amps[b]
    amps[b] = held


def apply_permutation(reg, subsystem, a, b):
    """Swap the amplitudes of levels a and b (NMR pi-pulse idealization)."""
    amps = reg.amps
    r = amps.shape[subsystem]
    if not (0 <= a < r and 0 <= b < r):
        raise IndexError(f"levels ({a},{b}) out of range for radix {r}")
    if a != b:
        _swap(amps, _at(amps.ndim, (subsystem, a)),
              _at(amps.ndim, (subsystem, b)))


def apply_conditional_flip(reg, control, target):
    """Flip the electron exactly on the control level's branch.

    ``control`` is a (subsystem, level) pair; ``target`` must have radix 2.
    This is the ESR/EDSR pulse idealization: the paired nuclear change of a
    physical EDSR pulse is composed from this flip plus a permutation.
    """
    amps = reg.amps
    csub, clevel = control
    if csub == target:
        raise ValueError("control subsystem equals target")
    if amps.shape[target] != 2:
        raise ValueError("flip target must have radix 2")
    if not 0 <= clevel < amps.shape[csub]:
        raise IndexError(f"control level {clevel} out of range")
    _swap(amps, _at(amps.ndim, (csub, clevel), (target, ELECTRON_DOWN)),
          _at(amps.ndim, (csub, clevel), (target, ELECTRON_UP)))


# -- photon emission ------------------------------------------------------


def add_photon(reg, d):
    """Append a photon subsystem with d bins plus a vacuum level (index d)."""
    new = np.zeros(reg.radices + (d + 1,), dtype=np.complex128)
    new[..., d] = reg.amps
    return Register(new), reg.n_subsystems


def apply_emission(reg, photon, bin, electron):
    """Cavity exchange: |up, vac> -> |down, photon in bin>, spin-down idle.

    ``electron`` is the axis of the emitting electron, which must have radix
    2.  Models the resonant spin-cavity energy swap as an instantaneous map;
    the emission duration is charged in the timing budget instead.
    """
    amps = reg.amps
    if amps.shape[electron] != 2:
        raise ValueError("emitting electron must have radix 2")
    vac = amps.shape[photon] - 1
    if not 0 <= bin < vac:
        raise IndexError(f"bin {bin} out of range (photon has {vac} bins)")
    # occupancy check: the emitting branch must hold no earlier photon
    occupied = amps[_at(amps.ndim, (electron, ELECTRON_UP),
                        (photon, slice(0, vac)))]
    if np.linalg.norm(occupied) > NORM_ATOL:
        raise ValueError(
            f"photon {photon} already populated on a branch where emission "
            "triggers")
    src = _at(amps.ndim, (electron, ELECTRON_UP), (photon, vac))
    amps[_at(amps.ndim, (electron, ELECTRON_DOWN), (photon, bin))] += amps[src]
    amps[src] = 0.0


def finalize_photon(reg, photon):
    """Contract a photon's vacuum level away once every bin has been visited."""
    vac = reg.radices[photon] - 1
    leftover = np.linalg.norm(reg.amps[_at(reg.n_subsystems, (photon, vac))])
    if leftover > NORM_ATOL:
        raise ValueError(
            f"photon {photon} still has vacuum amplitude {leftover:.3e}")
    return Register(
        reg.amps[_at(reg.n_subsystems, (photon, slice(0, vac)))].copy())


# -- two-subsystem gates --------------------------------------------------


def apply_cz_power(reg, i, j, weight):
    """Diagonal gate omega^{w k l} between equal-dimension subsystems."""
    amps = reg.amps
    if i == j:
        raise ValueError("CZ needs two distinct subsystems")
    d = amps.shape[i]
    if amps.shape[j] != d:
        raise ValueError(
            f"CZ dimension mismatch: {amps.shape[i]} vs {amps.shape[j]}")
    weight = int(weight) % d
    if weight == 0:
        return
    k = np.arange(d)
    phase = np.exp(2j * np.pi * weight * np.outer(k, k) / d)
    # broadcast the (symmetric) d x d phase table onto axes (i, j)
    a, b = sorted((i, j))
    view_shape = [1] * amps.ndim
    view_shape[a] = d
    view_shape[b] = d
    amps *= phase.reshape(view_shape)


# -- measurement ----------------------------------------------------------


def outcome_probabilities(reg, subsystem):
    axes = tuple(ax for ax in range(reg.n_subsystems) if ax != subsystem)
    p = np.sum(np.abs(reg.amps) ** 2, axis=axes)
    return np.real(p)


def collapse(reg, subsystem, outcome, p):
    """The renormalised slice at ``outcome``, whose probability is ``p``,
    without the measured axis: a measurement consumes its subsystem.

    A basic-index view copied to C order: ``np.take`` would first copy a
    register that is not C-ordered whole, once per outcome.
    """
    if p <= ZERO_PROBABILITY:
        raise ValueError(
            f"collapse onto zero-probability outcome {outcome} requested")
    amps = reg.amps[_at(reg.n_subsystems, (subsystem, outcome))].copy()
    amps /= math.sqrt(p)
    return Register(amps)


def remove_subsystem(reg, subsystem):
    """Drop a subsystem that sits in a definite basis level on every branch."""
    probs = outcome_probabilities(reg, subsystem)
    level = int(np.argmax(probs))
    if abs(probs[level] - 1.0) > NORM_ATOL:
        raise ValueError(
            f"subsystem {subsystem} is not in a definite level "
            f"(probabilities {probs})")
    return Register(np.take(reg.amps, level, axis=subsystem))

