"""The variants a study scores for each instrument.

`orig2` and `orig4` are the log returns binned into 2 and 4 equal-count
states. A skeleton variant is the up/down sequence of the skeleton with
step size delta, named `delta_{delta:g}`: the step to six significant
digits. Output files are keyed by the name, so steps that share one are
refused.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ConfigError

ORIGINAL_ALPHABETS = {"orig2": 2, "orig4": 4}
ORIGINAL_VARIANTS = tuple(ORIGINAL_ALPHABETS)
_DELTA_PREFIX = "delta_"


@dataclass(frozen=True)
class Variant:
    """A scored sequence: its name, its alphabet size and, for a skeleton
    variant, its step size (None for the originals)."""

    name: str
    alphabet: int
    delta: float | None = None

    @classmethod
    def skeleton(cls, delta: float) -> Variant:
        return cls(f"{_DELTA_PREFIX}{delta:g}", 2, delta)

    @classmethod
    def parse(cls, name: str) -> Variant:
        """The variant a name denotes; ValueError for an unknown name or a
        step that is not a positive finite number."""
        if name in ORIGINAL_ALPHABETS:
            return cls(name, ORIGINAL_ALPHABETS[name])
        if name.startswith(_DELTA_PREFIX):
            try:
                delta = float(name[len(_DELTA_PREFIX):])
            except ValueError:
                pass
            else:
                if math.isfinite(delta) and delta > 0:
                    return cls.skeleton(delta)
                raise ValueError(f"variant {name!r}: delta must be a positive finite number")
        raise ValueError(f"unknown variant {name!r}")


def study_variants(originals: Iterable[str], deltas: Iterable[float]) -> list[Variant]:
    """A study's variants in output order: the requested originals in the
    order of ORIGINAL_VARIANTS, then one skeleton variant per delta."""
    requested = set(originals)
    chosen = [Variant(name, m) for name, m in ORIGINAL_ALPHABETS.items() if name in requested]
    return chosen + [Variant.skeleton(delta) for delta in deltas]


def name_clashes(sources: Iterable[tuple[str, Variant]]) -> list[str]:
    """One message for each variant whose name an earlier one already has;
    each variant comes paired with the way it was given."""
    first: dict[str, str] = {}
    errors = []
    for source, variant in sources:
        if variant.name in first:
            errors.append(f"{first[variant.name]} and {source} share the variant name {variant.name!r}")
        first.setdefault(variant.name, source)
    return errors


def parse_variants(names: Iterable[str]) -> list[Variant]:
    """The variants named, originals in the given order and then skeleton
    variants by increasing delta. ConfigError lists every unknown name, bad
    delta and name given twice."""
    parsed, errors = [], []
    for name in names:
        try:
            parsed.append((repr(name), Variant.parse(name)))
        except ValueError as exc:
            errors.append(str(exc))
    errors += name_clashes(parsed)
    if errors:
        raise ConfigError(errors)
    return sorted((v for _, v in parsed), key=lambda v: (v.delta is not None, v.delta or 0.0))
