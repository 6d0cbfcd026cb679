"""Exception hierarchy shared by all nistab modules."""

from __future__ import annotations


class NIStabError(Exception):
    """Base class for all nistab errors."""


class DimensionError(NIStabError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class SingularAError(NIStabError):
    """State matrix A is numerically singular (pole at the origin)."""


class AsymmetricDError(NIStabError):
    """Feedthrough matrix D is not symmetric within tolerance."""


class NotAPoleError(NIStabError):
    """Requested frequency does not match any eigenvalue of A."""


class NotSimplePoleError(NIStabError):
    """Imaginary-axis eigenvalue has algebraic multiplicity greater than one."""


class DegenerateEigenvectorsError(NIStabError):
    """Left/right eigenvectors are numerically orthogonal; residue undefined."""


class NotCertifiedError(NIStabError):
    """Operation requires a certificate with verdict 'certified'."""


class FeedthroughError(NIStabError):
    """Loop feedthrough product D1 @ D2 is not negligible."""


class NonRealSpectrumError(NIStabError):
    """DC-gain product has significantly complex eigenvalues."""


class GenerationFailedError(NIStabError):
    """Random system generation exhausted its retry budget."""
