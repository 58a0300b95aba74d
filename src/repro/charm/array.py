"""Chare arrays and proxies.

A :class:`ChareArray` is an N-dimensional collection of chares spread
over the machine by a :class:`~repro.charm.mapping.Mapping`.  Elements
are addressed through the array's :class:`ArrayProxy`:

``arr.proxy[(i, j)].method(a, b)`` sends a message invoking
``method(a, b)`` on element ``(i, j)``; ``arr.proxy.bcast("go")``
invokes ``go()`` on every element via a spanning tree over the home
PEs.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Type

import numpy as np

from .chare import Chare
from .errors import CharmError, MappingError
from .mapping import BlockMap, Mapping, linear_index

if TYPE_CHECKING:  # pragma: no cover
    from .pe import PE
    from .runtime import Runtime
    from .section import ArraySection


def _component(i) -> int:
    """One index component as a plain int; integral floats are accepted,
    anything else non-integral raises :class:`MappingError`."""
    if isinstance(i, (int, np.integer, np.bool_)):
        return int(i)
    if isinstance(i, (float, np.floating)) and float(i).is_integer():
        return int(i)
    raise MappingError(f"index component {i!r} is not an integer")


def normalize(index) -> Tuple[int, ...]:
    """Accept ints, numpy ints, integral floats, lists, tuples; always
    store tuples of plain ints.  A non-integral component (``1.5``, a
    string, ``None``) raises :class:`MappingError` instead of being
    truncated or leaking a ``ValueError``."""
    if isinstance(index, (int, float, np.number, np.bool_)):
        return (_component(index),)
    if isinstance(index, (str, bytes)):
        raise MappingError(f"invalid element index {index!r}")
    try:
        return tuple(_component(i) for i in index)
    except TypeError:
        raise MappingError(f"invalid element index {index!r}") from None


class ElementProxy:
    """Callable handle on one array element.

    ``proxy.method(*args)`` sends ``method(*args)`` to the element.
    Arrays hand out a subclass built for their chare class
    (:func:`proxy_type`) with one sender method per public name of that
    class, so a send is a plain method call: no ``__getattr__``
    fallback and no closure per call.  Names the class does not define
    (set on instances at run time) still resolve through
    ``__getattr__``.
    """

    __slots__ = ("_array", "_index")

    def __init__(self, array: "ChareArray", index: Tuple[int, ...]) -> None:
        self._array = array
        self._index = index

    @property
    def index(self) -> Tuple[int, ...]:
        """This proxy's element index."""
        return self._index

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        return _sender(method).__get__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ElementProxy array{self._array.id}{self._index}>"


def _sender(method: str):
    """An :class:`ElementProxy` method sending ``method`` to its element."""

    def send(self: ElementProxy, *args: Any) -> None:
        array = self._array
        array.rt._send_canonical(array, self._index, method, args)

    send.__name__ = send.__qualname__ = f"send_{method}"
    return send


def proxy_type(cls: Type[Chare]) -> Type[ElementProxy]:
    """The :class:`ElementProxy` subclass for chare class ``cls``.

    It defines one sender per public name of ``cls`` that does not
    shadow an :class:`ElementProxy` attribute (``index`` stays the
    index): exactly the names ``__getattr__`` would serve.  Built by
    the class's first array and kept on the class itself (read from
    ``cls.__dict__``, so a subclass never reuses its base's), which
    ties its lifetime to the class and spares every later runtime the
    rebuild.
    """
    ptype = cls.__dict__.get("_element_proxy_type")
    if ptype is None:
        reserved = set(dir(ElementProxy))
        senders = {
            name: _sender(name) for name in dir(cls)
            if not name.startswith("_") and name not in reserved
        }
        ptype = type(f"{cls.__name__}Proxy", (ElementProxy,),
                     {"__slots__": (), **senders})
        cls._element_proxy_type = ptype
    return ptype


class ArrayProxy:
    """Handle on a whole chare array."""

    __slots__ = ("_array",)

    def __init__(self, array: "ChareArray") -> None:
        self._array = array

    def __getitem__(self, index) -> ElementProxy:
        array = self._array
        return array._proxy_type(array, array.normalize_index(index))

    def bcast(self, method: str, *args: Any) -> None:
        """Invoke an entry method on every member."""
        self._array.rt.bcast(self._array, method, args)

    @property
    def array(self) -> "ChareArray":
        """The underlying chare array."""
        return self._array


class ChareArray:
    """An N-dimensional array of chares."""

    def __init__(
        self,
        rt: "Runtime",
        array_id: int,
        cls: Type[Chare],
        dims: Tuple[int, ...],
        ctor_args: tuple = (),
        ctor_kwargs: dict | None = None,
        mapping: Mapping | None = None,
        internal: bool = False,
    ) -> None:
        if not dims or any(d <= 0 for d in dims):
            raise CharmError(f"invalid array dims {dims!r}")
        if not (isinstance(cls, type) and issubclass(cls, Chare)):
            raise CharmError(f"{cls!r} is not a Chare subclass")
        self.rt = rt
        self.id = array_id
        self.cls = cls
        self.dims = tuple(int(d) for d in dims)
        self.mapping = mapping if mapping is not None else BlockMap()
        self.internal = internal
        self.proxy = ArrayProxy(self)
        self._proxy_type = proxy_type(cls)

        self.elements: Dict[Tuple[int, ...], Chare] = {}
        self.local_elements: Dict[int, List[Tuple[int, ...]]] = {}
        #: element index -> home PE rank, resolved once here: an
        #: element never migrates, so no send consults the mapping.
        self._pe_by_index: Dict[Tuple[int, ...], int] = {}
        #: element index -> the same index (the stored plain-int
        #: tuple).  Any key that compares equal — numpy ints, bools,
        #: integral floats — finds the canonical form in one lookup.
        self._canonical: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        n_pes = rt.n_pes
        kwargs = ctor_kwargs or {}
        indices = itertools.product(*(range(d) for d in self.dims))
        for index, pe_rank in zip(indices, self.mapping.pe_table(self.dims, n_pes),
                                  strict=True):
            if not (0 <= pe_rank < n_pes):
                raise MappingError(f"map sent {index} to PE {pe_rank}")
            pe = rt.pes[pe_rank]
            elem = cls.__new__(cls)
            elem._bind(rt, self, index, pe)
            elem.__init__(*ctor_args, **kwargs)
            self.elements[index] = elem
            self._pe_by_index[index] = pe_rank
            self._canonical[index] = index
            self.local_elements.setdefault(pe_rank, []).append(index)
        #: sorted PE ranks hosting at least one element — the node set
        #: for this array's reduction / broadcast spanning tree.
        self.home_pes: List[int] = sorted(self.local_elements)
        self._home_pos = {pe: i for i, pe in enumerate(self.home_pes)}

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements/members."""
        return len(self.elements)

    def normalize_index(self, index) -> Tuple[int, ...]:
        """Canonical tuple form of an element index (bounds-checked).

        An index equal to an element's stored tuple resolves in one
        dict lookup; anything else (bare ints, lists, unhashable or
        out-of-range indices) takes the general path, which raises
        :class:`MappingError` for indices outside the array.
        """
        try:
            return self._canonical[index]
        except (KeyError, TypeError):
            pass
        idx = normalize(index)
        canonical = self._canonical.get(idx)
        if canonical is None:
            linear_index(idx, self.dims)  # raises: out of range / arity
        return canonical

    def element(self, index) -> Chare:
        """The chare object at an index (host-side introspection)."""
        return self.elements[self.normalize_index(index)]

    def pe_of(self, index) -> int:
        """Home PE rank of an element index."""
        return self._pe_by_index[self.normalize_index(index)]

    def local_count(self, pe_rank: int) -> int:
        """Number of members hosted on a PE."""
        return len(self.local_elements.get(pe_rank, ()))

    # Spanning-tree structure (binomial over home-PE positions) ----------

    def tree_parent(self, pe_rank: int) -> int | None:
        """Parent PE in the binomial tree, or None at the root."""
        from .section import binomial_parent

        parent_pos = binomial_parent(self._home_pos[pe_rank])
        return None if parent_pos is None else self.home_pes[parent_pos]

    def tree_children(self, pe_rank: int) -> List[int]:
        """Child PEs in the binomial tree (positions whose parent —
        lowest set bit cleared — is this node's position)."""
        from .section import binomial_children

        return [
            self.home_pes[c]
            for c in binomial_children(
                self._home_pos[pe_rank], len(self.home_pes)
            )
        ]

    @property
    def base_array(self) -> "ChareArray":
        """The array collective deliveries target (self; sections
        return their parent array)."""
        return self

    def section(self, indices) -> "ArraySection":
        """Create a registered section over ``indices`` of this array."""
        return self.rt.create_section(self, indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChareArray #{self.id} {self.cls.__name__}{self.dims}>"
