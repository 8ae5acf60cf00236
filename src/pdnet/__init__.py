"""Unrolled primal-dual proximal network for linear inverse problems in imaging.

Library layout:

* ``operators``  degradations A, analysis operators L, spectral norms
* ``pdhg``       unsupervised primal-dual solver and step-size checks
* ``network``    K-layer unrolled forward pass and model files
* ``backprop``   analytic gradients plus the finite-difference oracle
* ``training``   mini-batch SGD, full / partial learning
* ``data``       IDX/PGM ingestion, degradation synthesis, PSNR/SSIM
* ``cli``        batch driver (``pdnet`` command)

Import the library by submodule, e.g. ``from pdnet import network``.
"""

__version__ = "0.1.0"
