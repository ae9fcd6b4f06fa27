"""randbc: a numerical laboratory for random m-dissipative acoustic boundary
conditions.

Subpackages mirror the pipeline: finite-dimensional boundary-triple
extensions (extension_lab), Bessel evaluation and root finding (specfun), the
unit disk / unit ball impedance model (disk_model), random impedance and
contraction samplers (impedance), Weyl-law compactness criteria (weyl), and a
reproducible experiment CLI (cli).
"""
# Name of the kernel implementation (randbc._pykernels), for tools that
# record which kernels produced a run.
BACKEND = "python"

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
