"""Shared test helpers: which path the columnar kernel is built on.

The kernel has a numpy path and a stdlib path with identical results.
Tests that pin that identity run once per name in :data:`BACKENDS` and
build their kernels inside :func:`kernel_path`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.columnar import kernel

#: The kernel paths a differential test runs on.
BACKENDS = ["numpy", "no-numpy"]


@contextmanager
def kernel_path(backend: str) -> Iterator[None]:
    """Build kernels on ``backend``'s path inside the block.

    ``"no-numpy"`` hides numpy from the kernel module, so kernels built
    here take the stdlib path even where numpy is installed; ``"numpy"``
    leaves the module as imported (without numpy that is the stdlib path
    too).  A kernel keeps the path it was built with, so only its
    construction has to happen inside the block.
    """
    with pytest.MonkeyPatch.context() as mp:
        if backend == "no-numpy":
            mp.setattr(kernel, "_np", None)
        yield
