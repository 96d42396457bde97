"""Exact symbolic verification engine for q-deformed orthogonal
coordinate algebras, their exterior fiber algebras and the Dolbeault
Laplacian spectrum on quantum quadrics."""

from .field import FieldElem
from .ncpoly import NCPoly

__all__ = [
    "BACKEND_NAME",
    "FieldElem",
    "NCPoly",
]

__version__ = "0.1.0"

# Name of the kernel implementation, recorded by benchmark results; the
# pure-Python Laurent kernels in ``field`` are the only one.
BACKEND_NAME = "py"
