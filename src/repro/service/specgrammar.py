"""The shared ``name:key=value,...`` spec grammar.

Every registry that resolves spec strings — executors and mechanisms in
:mod:`repro.service.registry`, sources and sinks in
:mod:`repro.io.registry` — parses arguments with this one grammar, so
both registries parse identically:

``name:key=value[,key=value...]``
    ``"sharded:backend=thread,workers=8"``,
    ``"cluster:workers=8,transport=shm"``,
    ``"synthetic:generator=bernoulli,windows=500,seed=3"``.

Each registered name declares its valid keys as a tuple of
:class:`SpecKey` (name, destination keyword, optional converter).
Unknown keys fail **at parse time** listing the valid keys for that
name — misspellings never fall through to a factory ``TypeError``.

Values coerce to ``int`` then ``float`` when possible, plus
``true``/``false`` for booleans; ``raw`` keys (paths) skip coercion so
a numeric filename stays a string.  Values may contain ``:`` freely
(the spec splits on the *first* colon only); a value may not contain
``,`` — connectors whose path needs a comma keep the address form
(``"csv:<path>"``), which remains first-class.

Positional tails (``"sharded:thread:8"``) are an error everywhere but
in mechanism specs (``"bd:0.5"``); the error lists the name's valid
keys.
"""

from __future__ import annotations

import re

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "SpecKey",
    "check_options",
    "coerce_scalar",
    "format_spec",
    "format_value",
    "is_kv_tail",
    "kv_kwargs",
    "parse_kv_tail",
]

#: A key=value segment's key: an identifier (letters, digits, ``_``,
#: ``-``; no leading digit).  The first comma-segment of a spec tail
#: matching ``<key>=`` switches the tail into key=value mode.
_KV_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class SpecKey:
    """One valid key of a registered spec name.

    Attributes
    ----------
    name:
        The key as written in the spec string (``"workers"``).
    dest:
        The factory keyword it maps to (``"n_workers"``); defaults to
        ``name``.
    convert:
        Optional converter applied to the raw string value (e.g. a
        backend check that raises a pointed error on values it does
        not accept).  Defaults to :func:`coerce_scalar`.
    raw:
        ``True`` passes the value through uncoerced (paths).
    """

    name: str
    dest: Optional[str] = None
    convert: Optional[Callable[[str], object]] = None
    raw: bool = False

    @property
    def destination(self) -> str:
        return self.dest or self.name

    def value(self, text: str) -> object:
        if self.raw:
            return text
        if self.convert is not None:
            return self.convert(text)
        return coerce_scalar(text)


def coerce_scalar(text: str) -> object:
    """Coerce one spec value: ``int``, ``float``, ``true``/``false``,
    else the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    if text == "true":
        return True
    if text == "false":
        return False
    return text


def format_value(value: object) -> str:
    """Render one value back into spec-string form."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def is_kv_tail(tail: str, *, keys: Sequence[SpecKey] = ()) -> bool:
    """Whether a spec tail is in key=value form.

    The first comma-segment decides: ``<identifier>=...`` means
    key=value.  When ``keys`` is given (raw-tail connectors, whose tail
    is normally an opaque path), the identifier must additionally name
    a declared key — ``"csv:path=data.csv"`` is key=value while
    ``"csv:data=1.csv"`` stays a path.
    """
    head = tail.split(",", 1)[0]
    name, sep, _value = head.partition("=")
    if not sep or not _KV_KEY.match(name):
        return False
    if keys:
        return name in {key.name for key in keys}
    return True


def parse_kv_tail(tail: str, *, where: str) -> List[Tuple[str, str]]:
    """Split a key=value tail into ordered ``(key, raw_value)`` pairs.

    Duplicate keys and segments that are not ``key=value`` are parse
    errors; ``where`` names the offending spec in the message.
    """
    pairs: List[Tuple[str, str]] = []
    seen = set()
    for segment in tail.split(","):
        key, sep, value = segment.partition("=")
        if not sep or not _KV_KEY.match(key):
            raise ValueError(
                f"{where}: segment {segment!r} is not 'key=value'; "
                f"expected 'name:key=value[,key=value...]'"
            )
        if key in seen:
            raise ValueError(f"{where}: duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, value))
    return pairs


def kv_kwargs(
    tail: str,
    keys: Sequence[SpecKey],
    *,
    where: str,
) -> dict:
    """Parse a key=value tail against a spec name's declared keys.

    Returns factory keyword arguments (keys mapped through their
    ``dest``, values converted).  Unknown keys raise listing every
    valid key for the name, mirroring the registries' unknown-name
    error style.
    """
    by_name = {key.name: key for key in keys}
    kwargs = {}
    for name, value in parse_kv_tail(tail, where=where):
        spec_key = _known(by_name, name, where)
        kwargs[spec_key.destination] = _converted(
            spec_key.value, name, value, where
        )
    return kwargs


def check_options(options, keys: Sequence[SpecKey], *, where: str) -> None:
    """Check factory keyword options against a spec name's declared keys.

    The dict-form twin of :func:`kv_kwargs`: every option must name a
    key's factory keyword, and a value whose key has a converter must
    pass it, with the same errors a spec string's keys raise.
    """
    by_dest = {key.destination: key for key in keys}
    for name, value in options.items():
        convert = _known(by_dest, name, where).convert
        if convert is not None:
            _converted(convert, name, value, where)


def _known(keys: dict, name: str, where: str) -> SpecKey:
    if name not in keys:
        valid = ", ".join(sorted(keys)) or "(none)"
        raise ValueError(
            f"unknown key {name!r} for {where}; valid keys: {valid}"
        )
    return keys[name]


def _converted(convert: Callable, name: str, value, where: str) -> object:
    try:
        return convert(value)
    except ValueError as error:
        raise ValueError(f"{where}: key {name!r}: {error}") from None


def format_spec(name: str, pairs: Sequence[Tuple[str, object]]) -> str:
    """Render ``(name, pairs)`` into canonical key=value spec form.

    Keys are sorted, so ``parse → format → parse`` is a fixed point.
    """
    if not pairs:
        return name
    rendered = ",".join(
        f"{key}={format_value(value)}"
        for key, value in sorted(pairs, key=lambda pair: pair[0])
    )
    return f"{name}:{rendered}"
