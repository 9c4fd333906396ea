"""Shared exception types."""

from __future__ import annotations


class GkzError(Exception):
    """Base class for all toolkit errors."""


class DuplicatePointError(GkzError):
    """A point configuration contains a repeated point."""


class NotGeneratingError(GkzError):
    """The points do not generate the full integer lattice.

    Carries the index [Z^n : ZA] of the lattice the points generate (0 means
    the points do not even span rationally).
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"points do not generate the lattice (index {index})")


class NotARelationError(GkzError):
    """A vector claimed as a lattice relation does not annihilate the points."""


class ScalarModeError(GkzError):
    """Polynomials with different torus dimensions or numbers of symbolic
    parameters were mixed."""


class StructureError(GkzError):
    """The configuration does not have constant last coordinate 1 and no
    unimodular change of coordinates fixing that was found."""


class PochhammerPoleError(GkzError):
    """A rising-factorial factor vanishes or blows up for the requested range."""


class NotStabilizedError(GkzError):
    """A truncated dimension did not agree at two consecutive window bounds;
    ``complex_id`` names the complex that was read."""

    def __init__(self, dims: tuple[int, int], bound: int, complex_id: str):
        self.dims = dims
        self.bound = bound
        self.complex_id = complex_id
        super().__init__(f"dimension not stabilized at bound {bound} on {complex_id}: "
                         f"{dims[0]} vs {dims[1]}")


class VolumeMismatchError(GkzError):
    """A stabilized dimension that must be the normalized volume
    n! vol(conv(0 u A)) is not: a random-lambda reading on Z^n or U0 at any
    parameter, or on U at a nonresonant one.  ``complex_id`` names the
    complex that was read."""

    def __init__(self, dims: tuple[int, int], bound: int, volume: int,
                 complex_id: str):
        self.dims = dims
        self.bound = bound
        self.volume = volume
        self.complex_id = complex_id
        super().__init__(f"dimension {dims[1]} stabilized at bound {bound} (dims {dims[0]}, "
                         f"{dims[1]}) differs from the normalized volume {volume} "
                         f"on {complex_id}")


class ResonantError(GkzError):
    """A computation that requires a nonresonant parameter was given a resonant one."""


class SkippedPrimeError(GkzError):
    """A prime cannot be used (it divides a denominator of the parameter)."""


class RankConsistencyError(GkzError):
    """A mod-p solution dimension exceeded the rank, which should be impossible."""
