"""Every name the package exports resolves: a dangling name in `__all__`
makes `from astra import *` raise AttributeError."""

import astra


def test_every_export_resolves():
    missing = [name for name in astra.__all__ if not hasattr(astra, name)]
    assert missing == []
