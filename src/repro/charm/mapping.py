"""Chare-array element to PE mappings.

The runtime maps virtual processors (chares) onto physical PEs; the
choice affects load balance and communication locality.  The paper's
experiments use straightforward block placement with a virtualization
ratio (chares per PE) of 8 for the stencil runs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, Tuple

import numpy as np

from .errors import MappingError


def linear_index(index: Tuple[int, ...], dims: Tuple[int, ...]) -> int:
    """Row-major linearization of a multidimensional chare index."""
    if len(index) != len(dims):
        raise MappingError(f"index {index} does not match dims {dims}")
    for i, d in zip(index, dims):
        if not (0 <= i < d):
            raise MappingError(f"index {index} out of bounds for dims {dims}")
    return int(np.ravel_multi_index(index, dims))


class Mapping:
    """Base mapping: assigns each element index to a home PE."""

    def pe_for(self, index: Tuple[int, ...], dims: Tuple[int, ...], n_pes: int) -> int:
        """Home PE for an element index under this mapping."""
        raise NotImplementedError

    def pe_table(self, dims: Tuple[int, ...], n_pes: int) -> List[int]:
        """Home PE of every element, in row-major index order.

        Called once when an array is created; the array keeps the
        result, so no message ever consults the mapping again.  The
        default asks :meth:`pe_for` per index; linear maps override it
        with a closed form that computes the element count once.
        """
        return [self.pe_for(index, dims, n_pes)
                for index in itertools.product(*(range(d) for d in dims))]


class BlockMap(Mapping):
    """Contiguous blocks of linearized indices per PE (Charm++ default).

    With ``total = k * n_pes`` elements, PE *p* hosts linear indices
    ``[p*k, (p+1)*k)`` — consecutive chares share a PE, which for
    row-major stencil decompositions keeps neighbours local.
    """

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        total = int(np.prod(dims))
        return linear_index(index, dims) * n_pes // total

    def pe_table(self, dims, n_pes):
        """Home PE of every element, in row-major index order."""
        total = math.prod(dims)
        return [lin * n_pes // total for lin in range(total)]


class RoundRobinMap(Mapping):
    """Linear index modulo PE count — maximal scatter."""

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        return linear_index(index, dims) % n_pes

    def pe_table(self, dims, n_pes):
        """Home PE of every element, in row-major index order."""
        return [lin % n_pes for lin in range(math.prod(dims))]


class CustomMap(Mapping):
    """Wrap a user function ``(index, dims, n_pes) -> pe``."""

    def __init__(self, fn: Callable[[Tuple[int, ...], Tuple[int, ...], int], int]) -> None:
        self.fn = fn

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        pe = int(self.fn(index, dims, n_pes))
        if not (0 <= pe < n_pes):
            raise MappingError(f"custom map produced PE {pe} outside [0, {n_pes})")
        return pe
