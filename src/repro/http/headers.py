"""Case-insensitive HTTP header multimap.

Stores headers as an ordered list of ``(name, value)`` pairs, preserving
insertion order and duplicates (required for ``Set-Cookie``-style fields
and for faithful serialisation), with case-insensitive lookup.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

__all__ = ["Headers", "freshness_lifetime", "parse_cache_control"]

HeaderSource = Union[
    "Headers", Iterable[Tuple[str, str]], dict, None
]


def parse_cache_control(value: Optional[str]) -> dict:
    """``Cache-Control`` directives -> ``{name: value-or-None}``.

    Directive names lower-case; valueless directives map to ``None``
    (``{"no-store": None, "max-age": "60"}``). An absent or empty
    header yields an empty dict.
    """
    directives: dict = {}
    if not value:
        return directives
    for part in value.split(","):
        name, sep, argument = part.partition("=")
        name = name.strip().lower()
        if not name:
            continue
        directives[name] = argument.strip().strip('"') if sep else None
    return directives


def freshness_lifetime(headers: "Headers") -> Optional[float]:
    """A response's freshness lifetime in seconds, from its headers.

    The one ``Cache-Control`` reading of both cache tiers: ``0.0``
    when the origin forbids reuse (``no-store``, ``no-cache``,
    ``max-age=0``); ``max-age`` seconds; ``None`` when there is no
    freshness directive or a malformed one (the cache's own default
    applies).
    """
    directives = parse_cache_control(headers.get("Cache-Control"))
    if "no-store" in directives or "no-cache" in directives:
        return 0.0
    try:
        return max(0.0, float(directives["max-age"]))
    except (KeyError, TypeError, ValueError):
        return None


class Headers:
    """Ordered, case-insensitive header collection."""

    # Each pair's lowered name sits beside it: a lookup is a list search.
    __slots__ = ("_items", "_lower")

    def __init__(self, items: HeaderSource = None):
        self._items: List[Tuple[str, str]] = []
        self._lower: List[str] = []
        if items is None:
            return
        if isinstance(items, Headers):
            self._items.extend(items._items)
            self._lower.extend(items._lower)
            return
        if isinstance(items, dict):
            items = items.items()
        for name, value in items:
            self.add(name, value)

    # -- mutation ---------------------------------------------------------

    def add(self, name: str, value) -> None:
        """Append a header, keeping any existing values of ``name``."""
        self._items.append((str(name), str(value)))
        self._lower.append(str(name).lower())

    def set(self, name: str, value) -> None:
        """Replace every value of ``name`` with a single one."""
        self.remove(name)
        self.add(name, value)

    def setdefault(self, name: str, value) -> None:
        """Add the header only if ``name`` is not present."""
        if name.lower() not in self._lower:
            self.add(name, value)

    def remove(self, name: str) -> None:
        """Drop every value of ``name`` (no error if absent)."""
        lowered = name.lower()
        while lowered in self._lower:
            index = self._lower.index(lowered)
            del self._lower[index], self._items[index]

    def extend(self, items: HeaderSource) -> None:
        for name, value in Headers(items).items():
            self.add(name, value)

    # -- lookup -------------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of ``name``, or ``default``."""
        lowered = name.lower()
        if lowered in self._lower:
            return self._items[self._lower.index(lowered)][1]
        return default

    def get_all(self, name: str) -> List[str]:
        """Every value of ``name``, in insertion order."""
        want = name.lower()
        return [v for (_, v), k in zip(self._items, self._lower) if k == want]

    def get_int(self, name: str) -> Optional[int]:
        """First value of ``name`` parsed as an integer, else ``None``."""
        value = self.get(name)
        if value is None:
            return None
        try:
            return int(value.strip())
        except ValueError:
            return None

    def contains_token(self, name: str, token: str) -> bool:
        """True if ``token`` appears in the comma-list value(s) of ``name``.

        Used for ``Connection: keep-alive, ...`` style headers.
        """
        token = token.lower()
        for value in self.get_all(name):
            for part in value.split(","):
                if part.strip().lower() == token:
                    return True
        return False

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._lower

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._lower == other._lower and [
            v for _, v in self._items
        ] == [v for _, v in other._items]

    def copy(self) -> "Headers":
        return Headers(self)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"
