"""Curve registry: a plain-text label -> a-invariants table.

Format: one entry per line, ``label:a1,a2,a3,a4,a6``; blank lines and lines
starting with '#' are skipped.  The packaged table carries the two curves of
the built-in example plus a handful of standard test curves.
"""
from __future__ import annotations

import functools
from importlib import resources

from .curve import WeierstrassCurve
from .errors import RegistryError, SingularCurve


def parse_registry(text: str) -> dict[str, WeierstrassCurve]:
    entries: dict[str, WeierstrassCurve] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, rest = line.partition(":")
        label = label.strip()
        if not sep or not label:
            raise RegistryError(f"line {lineno}: expected 'label:a1,a2,a3,a4,a6'")
        if label in entries:
            raise RegistryError(f"line {lineno}: duplicate label {label!r}")
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 5:
            raise RegistryError(f"line {lineno}: expected 5 coefficients")
        try:
            coeffs = [int(p) for p in parts]
        except ValueError as exc:
            raise RegistryError(f"line {lineno}: {exc}") from exc
        try:
            entries[label] = WeierstrassCurve(*coeffs)
        except SingularCurve as exc:
            raise RegistryError(f"line {lineno}: {exc}") from exc
    return entries


@functools.cache
def _packaged_registry() -> dict[str, WeierstrassCurve]:
    return parse_registry(
        resources.files(__package__).joinpath("curves.txt").read_text()
    )


def load_registry(path: str | None = None) -> dict[str, WeierstrassCurve]:
    """Registry from a file path, read on every call, or the packaged default
    table, parsed once per process.  Each call returns a new dict, so a
    caller that changes it changes no later call."""
    if path is None:
        return dict(_packaged_registry())
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise RegistryError(
            f"cannot read registry {path}: {exc.strerror or exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise RegistryError(f"registry {path} is not UTF-8 text") from exc
    return parse_registry(text)
