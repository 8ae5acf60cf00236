"""Unrolled primal-dual proximal network for linear inverse problems in imaging.

Library layout:

* ``operators``  degradations A, analysis operators L, spectral norms
* ``prox``       l1 proximal calculus
* ``pdhg``       unsupervised primal-dual solver and step-size checks
* ``network``    K-layer unrolled forward pass and model files
* ``backprop``   analytic gradients plus the finite-difference oracle
* ``train``      mini-batch SGD, full / partial learning
* ``data``       IDX/PGM ingestion, degradation synthesis, PSNR/SSIM
* ``cli``        batch driver (``pdnet`` command)
"""

from .backprop import Gradients, backward, compare_gradients, finite_diff_gradients, loss
from .data import (
    Dataset,
    degrade,
    degrade_set,
    extract_patches,
    load_idx,
    load_pgm,
    psnr,
    robustness_eval,
    save_pgm,
    split,
    ssim,
    synthetic_digits,
)
from .network import (
    BlockSpec,
    DenseSpec,
    LayerParams,
    NetworkParams,
    deserialize,
    distance_report,
    forward,
    init_network,
    serialize,
)
from .operators import (
    Decimation,
    IdentityOperator,
    UniformBlur,
    fuse_analysis,
    make_block_sparse_analysis,
    make_dense_analysis,
    make_first_difference,
)
from .pdhg import SolveReport, check_stepsizes, constraint_distance, pdhg_solve
from .prox import prox_conj_l1, prox_conj_l1_diag_jacobian
from .training import TrainConfig, TrainResult, sgd_step, train

__version__ = "0.1.0"
