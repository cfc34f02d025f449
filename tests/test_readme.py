"""The README's quick tour runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftlab
from shiftlab import coordinate_shift, drury_arveson_weights, enumerate_basis, self_commutator

README = Path(__file__).parents[1] / "README.md"


def quick_tour() -> str:
    """The first ```python block after the README's "Quick tour" heading."""
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_quick_tour_runs_and_prints_the_hilbert_schmidt_norm():
    out = subprocess.run([sys.executable, "-c", quick_tour()], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(shiftlab.__file__).parents[1])})
    # the tour prints ||[Z1*, Z1]||_2 on the window N - 2 of m=2, N=20: the
    # Frobenius norm of that block, here read off the dense matrix
    C = self_commutator(coordinate_shift(drury_arveson_weights(enumerate_basis(2, 20)), 1))
    expected = np.linalg.norm(C.window().toarray())
    assert float(out.stdout) == pytest.approx(expected, rel=1e-12)
