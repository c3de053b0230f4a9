"""The variants a study scores for each instrument.

`orig2` and `orig4` are the log returns binned into 2 and 4 equal-count
states. A skeleton variant is the up/down sequence of the skeleton with
step size delta, named `delta_{delta:g}`: the step to six significant
digits. Output files are keyed by the name, so steps that share one are
refused.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

ORIGINAL_ALPHABETS = {"orig2": 2, "orig4": 4}
ORIGINAL_VARIANTS = tuple(ORIGINAL_ALPHABETS)


@dataclass(frozen=True)
class Variant:
    """A scored sequence: its name, its alphabet size and, for a skeleton
    variant, its step size (None for the originals)."""

    name: str
    alphabet: int
    delta: float | None = None

    @classmethod
    def skeleton(cls, delta: float) -> Variant:
        return cls(f"delta_{delta:g}", 2, delta)


def study_variants(originals: Iterable[str], deltas: Iterable[float]) -> list[Variant]:
    """A study's variants in output order: the requested originals in the
    order of ORIGINAL_VARIANTS, then one skeleton variant per delta."""
    requested = set(originals)
    chosen = [Variant(name, m) for name, m in ORIGINAL_ALPHABETS.items() if name in requested]
    return chosen + [Variant.skeleton(delta) for delta in deltas]


def name_clashes(sources: Iterable[tuple[str, str]]) -> list[str]:
    """One message for each variant name that an earlier one already has;
    each name comes paired with the way it was given."""
    first: dict[str, str] = {}
    errors = []
    for source, name in sources:
        if name in first:
            errors.append(f"{first[name]} and {source} share the variant name {name!r}")
        first.setdefault(name, source)
    return errors
