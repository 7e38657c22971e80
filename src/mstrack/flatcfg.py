"""Flat `key = value` config text with dotted section prefixes.

Used by the CLI run config and the scene-spec files.  Keys are dotted
lowercase identifiers; values are raw strings (split on whitespace by the
typed getters when needed).  Blank lines and lines starting with `#` are
ignored.  Unknown or malformed keys are reported with their line numbers.
"""

from __future__ import annotations

import re

from .errors import ConfigError, parse_int

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class FlatConfig:
    def __init__(self, entries: dict, source: str = "<config>"):
        # key -> (raw value, line number)
        self.entries = entries
        self.source = source

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def keys(self):
        return self.entries.keys()

    def line_of(self, key: str) -> int:
        return self.entries[key][1]

    def raw(self, key: str, default: str | None = None) -> str | None:
        if key in self.entries:
            return self.entries[key][0]
        return default

    def _typed(self, key, default, conv, typename):
        val = self.raw(key)
        if val is None:
            return default
        try:
            return conv(val)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.source}:{self.line_of(key)}: key {key!r} needs {typename}, got {val!r}"
            ) from None

    def get_str(self, key, default=None):
        return self.raw(key, default)

    def get_int(self, key, default=None):
        return self._typed(key, default, parse_int, "an integer")

    def get_float(self, key, default=None):
        return self._typed(key, default, float, "a number")

    def get_floats(self, key, default=None):
        return self._typed(key, default, lambda v: tuple(float(p) for p in v.split()), "a number list")

    def get_list(self, key, default=None):
        val = self.raw(key)
        if val is None:
            return default
        return tuple(p.strip() for p in val.split(",") if p.strip())

    def reject_unknown(self, allowed) -> None:
        """Fail on any key not in `allowed` (exact names or regex patterns)."""
        pats = [a for a in allowed if not isinstance(a, str)]
        names = {a for a in allowed if isinstance(a, str)}
        for key, (_, lineno) in sorted(self.entries.items(), key=lambda kv: kv[1][1]):
            if key in names or any(p.match(key) for p in pats):
                continue
            raise ConfigError(f"{self.source}:{lineno}: unknown key {key!r}")


def parse_flat_text(text: str, source: str = "<config>") -> FlatConfig:
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}:{lineno}: malformed key {key!r}")
        if key in entries:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return FlatConfig(entries, source)


def parse_flat_file(path) -> FlatConfig:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None
    return parse_flat_text(text, source=str(path))
