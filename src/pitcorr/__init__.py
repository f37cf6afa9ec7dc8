"""Phase-field pitting corrosion solver with matrix-oriented IMEX steppers.

The submodules are the API; the package namespace holds only `__version__`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
