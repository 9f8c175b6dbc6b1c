"""The extensible per-object attribute database.

"All Legion objects include an extensible attribute database, the contents of
which are determined by the type of the object" (paper section 3.1).  Host
objects populate theirs with architecture, OS, load, available memory, and —
beyond the minimal triple used by most schedulers — site-policy descriptors
such as price per CPU-second or domains from which instantiation requests are
refused.

Attributes are named values.  Values may be scalars (str/int/float/bool) or
flat lists of scalars; queries treat list-valued attributes as "any element
matches".  The database timestamps every write so Collections can report
record staleness (experiment E6).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = ["AttributeDatabase", "Scalar", "AttrValue"]

Scalar = Union[str, int, float, bool]
AttrValue = Union[Scalar, List[Scalar]]

_SCALARS = (str, int, float, bool)
_MISSING = object()


def _check_name(name: Any) -> None:
    if not isinstance(name, str) or not name:
        raise TypeError("attribute names must be non-empty strings")


def _same_item_types(old: List[Scalar], value: List[Any]) -> bool:
    """Whether two equal lists hold the same element types, so ``[1]``
    does not stand in for ``[1.0]``."""
    return all(type(a) is type(b) for a, b in zip(old, value))


def _check_value(name: str, value: Any) -> AttrValue:
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        out: List[Scalar] = []
        for item in value:
            if not isinstance(item, _SCALARS):
                raise TypeError(
                    f"attribute {name!r}: list elements must be scalars, "
                    f"got {type(item).__name__}")
            out.append(item)
        return out
    raise TypeError(f"attribute {name!r}: unsupported value type "
                    f"{type(value).__name__}")


class AttributeDatabase:
    """A mapping of attribute names to scalar or list-of-scalar values."""

    def __init__(self, initial: Optional[Mapping[str, AttrValue]] = None):
        self._attrs: Dict[str, AttrValue] = {}
        self._updated_at: Dict[str, float] = {}
        self._last_update = 0.0
        if initial:
            self.update(initial)

    # -- writes ---------------------------------------------------------------
    def set(self, name: str, value: AttrValue, now: float = 0.0) -> None:
        _check_name(name)
        self._attrs[name] = _check_value(name, value)
        self._updated_at[name] = now
        self._last_update = max(self._last_update, now)

    def update(self, values: Mapping[str, AttrValue], now: float = 0.0) -> None:
        """Write every attribute in ``values`` at ``now`` — the bulk form
        of :meth:`set`, and the host re-assessment hot path.

        A value equal to the stored one *and of the same type*, element by
        element for lists, is kept without re-validation (so ``1``,
        ``1.0`` and ``True`` stay distinct, in lists too); new or changed
        values are validated once.  Every name is stamped ``now`` whether
        or not its value changed, since :meth:`updated_at` means "last
        write".  An invalid name or value
        raises :class:`TypeError` before anything is written.
        """
        if not values:
            return
        attrs = self._attrs
        changed: Dict[str, AttrValue] = {}
        for name, value in values.items():
            old = attrs.get(name, _MISSING)
            if (type(old) is not type(value) or old != value
                    or (type(value) is list
                        and not _same_item_types(old, value))):
                _check_name(name)
                changed[name] = _check_value(name, value)
        attrs.update(changed)
        self._updated_at.update(dict.fromkeys(values, now))
        self._last_update = max(self._last_update, now)

    def delete(self, name: str) -> None:
        self._attrs.pop(name, None)
        self._updated_at.pop(name, None)

    # -- reads ----------------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        return self._attrs.get(name, default)

    def __getitem__(self, name: str) -> AttrValue:
        return self._attrs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def names(self) -> List[str]:
        return sorted(self._attrs)

    def items(self) -> Iterator[Tuple[str, AttrValue]]:
        return iter(self._attrs.items())

    def updated_at(self, name: str) -> float:
        """Virtual time of the last write to ``name`` (0.0 if never)."""
        return self._updated_at.get(name, 0.0)

    @property
    def last_update(self) -> float:
        """Virtual time of the most recent write to any attribute."""
        return self._last_update

    # -- export ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, AttrValue]:
        """A deep-enough copy safe to ship to a Collection: one top-level
        copy in which only the list values are copied again."""
        out = self._attrs.copy()
        for k, v in out.items():
            if type(v) is list:
                out[k] = v.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttributeDatabase({self._attrs!r})"
