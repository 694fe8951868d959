"""Fixtures shared by the engine backend matrices."""

from __future__ import annotations

import pytest

from repro.engine import vectorized


@pytest.fixture(autouse=True)
def _batched_vectorized_column(request, monkeypatch):
    """Route every component of the ``vectorized-batched`` matrix column
    through the batched Boruvka kernel.

    The kernel only takes components above
    :data:`~repro.engine.vectorized.SMALL_COMPONENT_THRESHOLD` pairs, which
    the matrices' small worlds never reach, so without this column it runs
    on a first frontier only (``test_vectorized.py``).  The column's engine
    kwargs are those of ``vectorized`` (see
    ``test_backend_matrix.backend_options``).  Autouse fixtures are exempt
    from Hypothesis' function-scoped-fixture check; the patch holds for
    every example of the test.
    """
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("backend") == "vectorized-batched":
        monkeypatch.setattr(vectorized, "SMALL_COMPONENT_THRESHOLD", 0)
