"""The package's public names."""

from __future__ import annotations

import lda_lab


def test_every_public_name_resolves_and_none_repeats():
    assert len(set(lda_lab.__all__)) == len(lda_lab.__all__)
    assert [name for name in lda_lab.__all__ if not hasattr(lda_lab, name)] == []
