"""The package's public names."""

from __future__ import annotations

import voho


def test_every_export_resolves_once():
    assert len(voho.__all__) == len(set(voho.__all__))
    missing = [name for name in voho.__all__ if not hasattr(voho, name)]
    assert missing == []
