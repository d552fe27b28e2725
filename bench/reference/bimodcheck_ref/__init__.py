"""Exact diagnostics for bimodules over finite-dimensional algebras.

The package decides, with certificates, whether a bimodule over a pair
of finite-dimensional algebras is a generator, separable, or formally
smooth, and computes module-relative and ring-relative Hochschild
cohomology by exact linear algebra over Q or F_p.
"""

from .exactlin import Field, Matrix, Subspace, QQ

__all__ = ["Field", "Matrix", "Subspace", "QQ"]
__version__ = "0.1.0"
