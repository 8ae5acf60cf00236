"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale training
runs (criteria 4-8) share session-scoped fixtures; everything is seeded, so
two invocations produce identical numbers.
"""

import struct
import time

import numpy as np
import pytest

from pdnet import backprop as bp
from pdnet import data as dm
from pdnet import network as net
from pdnet import operators as ops
from pdnet import pdhg
from pdnet import training as tr
from pdnet.pdhg import prox_conj_l1
from pdnet.rng import Stream, derive

from helpers import degrade, mask_dense, moving_average, prox_l1, synthetic_strokes, to_dense

DESK_SEED = 1001
DESK_GAMMA = 4e-7
SIDE = 28
N = SIDE * SIDE


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared desk-scale setup (criteria 4-8)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def desk_data():
    a_op = ops.UniformBlur(3, SIDE)
    clean = dm.synthetic_digits(600, side=SIDE, seed=derive(DESK_SEED, 1))
    ds = dm.degrade_set(clean, a_op, 20.0, derive(DESK_SEED, 2))
    split = {
        "a_op": a_op,
        "train_clean": ds.clean[:500], "train_z": ds.degraded[:500],
        "val_clean": ds.clean[500:], "val_z": ds.degraded[500:],
        "val_set": dm.Dataset(clean=ds.clean[500:],
                              degraded=ds.degraded[500:],
                              degradation=ds.degradation,
                              noise_alpha=20.0, seed=ds.seed),
    }
    w = a_op.apply_adjoint(split["val_z"])
    split["baseline_psnr"] = float(np.mean(
        [dm.psnr(w[i], split["val_clean"][i]) for i in range(100)]))
    return split


def _desk_run(desk_data, mode, depth=6, p=100, max_iter=3000):
    params = net.init_network(desk_data["a_op"], depth, [net.DenseSpec(p)],
                              mode, seed=derive(DESK_SEED, 3))
    return tr.train(params, desk_data["train_clean"], desk_data["train_z"],
                    desk_data["val_clean"], desk_data["val_z"],
                    gamma=DESK_GAMMA, batch_size=50, max_iter=max_iter,
                    seed=derive(DESK_SEED, 4), val_cadence=100,
                    lr_decay_every=None, lr_decay_factor=0.5)


@pytest.fixture(scope="session")
def desk_full(desk_data):
    return _desk_run(desk_data, "full")


@pytest.fixture(scope="session")
def desk_partial(desk_data):
    return _desk_run(desk_data, "partial")


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for t in range(20):
        side = 3 + t % 2  # N in {9, 16}
        n = side * side
        p = 4 if t % 3 else 8
        blur = t % 3 != 2
        a_op = ops.UniformBlur(3, side) if blur else ops.IdentityOperator(n)
        if t % 4 == 1:
            sites = 1 if side == 3 else 4  # 2x2 windows at stride 2
            spec = [net.BlockSpec(2, 2, max(1, p // sites), "fit")]
        else:
            spec = [net.DenseSpec(p)]
        params = net.init_network(a_op, 2 + t % 2, spec, "full",
                                  seed=derive(0xACCE, t), stddev=0.5)
        clean = (Stream(derive(0xACCE, t, 1)).uniform(2 * n) * 8.0).reshape(2, n)
        degraded = np.stack([
            degrade(clean[i], a_op, 0.5, derive(0xACCE, t, 2, i))
            for i in range(2)
        ])
        out, trace = net.forward(params, degraded, keep_trace=True)
        analytic = bp.backward(params, clean, trace)
        reference = bp.finite_diff_gradients(params, clean, degraded, epsilon=1e-6)
        worst = max(worst, max(bp.compare_gradients(analytic, reference).values()))
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-5 and elapsed < 60.0,
            f"20 instances, worst relative gradient error {worst:.3e} "
            f"(bound 1e-5), {elapsed:.1f}s (bound 60s)")


# ---------------------------------------------------------------------------
# criterion 2: unrolled equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_unrolled_equivalence():
    side = 8
    a_op = ops.UniformBlur(3, side)
    worst = 0.0
    for depth in (1, 2, 6):
        base = net.init_network(a_op, 1, [net.DenseSpec(6)], "full",
                                seed=derive(0xE02, depth))
        lp = base.layers[0]
        shared = net.NetworkParams(a_op, [
            net.LayerParams(lp.tau, lp.sigma, lp.analysis.clone())
            for _ in range(depth)
        ], "full")
        z = Stream(derive(0xE02, depth, 1)).uniform(side * side)[None] * 255
        out, _ = net.forward(shared, z)
        x_hat = pdhg.pdhg_solve(a_op, lp.analysis, z,
                                lp.tau, lp.sigma,
                                tol=0.0, max_iter=depth)[0]
        worst = max(worst, float(np.abs(out - x_hat).max()))
    _report(2, worst <= 1e-12,
            f"K in {{1,2,6}} on 8x8 images, max |forward - solver| = {worst:.3e} "
            f"(bound 1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: closed-form denoising oracle
# ---------------------------------------------------------------------------


def test_criterion_3_closed_form_oracle():
    n = 16
    ident = ops.IdentityOperator(n)
    worst = 0.0
    for lam in (0.1, 1.0, 5.0):
        l_op = ops.make_scaled_identity_analysis(n, lam)
        sigma = 0.9 * 0.5 / lam**2
        for t in range(100):
            z = Stream(derive(0xC3, t)).normal(n) * 4.0
            x_hat = pdhg.pdhg_solve(ident, l_op, z[None], 1.0, sigma,
                                    tol=1e-10, max_iter=100_000)[0][0]
            worst = max(worst, float(np.abs(x_hat - prox_l1(z, lam)).max()))
    _report(3, worst <= 1e-6,
            f"lambda in {{0.1,1,5}} x 100 vectors, max |x_hat - soft_threshold| "
            f"= {worst:.3e} (bound 1e-6)")


# ---------------------------------------------------------------------------
# criteria 4-8: desk-scale training properties
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_partial_mode_constraint(desk_partial):
    records = [r for r in desk_partial.history.records if r["iter"] <= 2000]
    assert len(records) >= 20
    worst = max(max(r["dc"]) for r in records)
    _report(4, worst <= 1e-18,
            f"partial mode, {len(records)} logged steps over 2000 iterations, "
            f"max d_C = {worst:.3e} (bound 1e-18)")


@pytest.mark.slow
def test_criterion_5_desk_training_gain(desk_data, desk_full, desk_partial):
    base = desk_data["baseline_psnr"]
    full_psnr = desk_full.history.records[-1]["val_psnr"]
    partial_psnr = desk_partial.history.records[-1]["val_psnr"]
    runtime = desk_full.seconds + desk_partial.seconds
    # sanity companion: the training-loss moving average must have dropped
    ma_early = moving_average(desk_full.history.losses, 100)
    ma_late = moving_average(desk_full.history.losses, 2999)
    ok = (full_psnr >= base + 2.0) and (full_psnr >= partial_psnr) \
        and desk_full.seconds < 1800 and ma_late < ma_early
    _report(5, ok,
            f"full {full_psnr:.2f} dB vs baseline {base:.2f} dB "
            f"(gain {full_psnr - base:.2f}, need >= 2.0); partial "
            f"{partial_psnr:.2f} dB (full >= partial); loss moving avg "
            f"{ma_early:.0f} -> {ma_late:.0f}; runtimes full "
            f"{desk_full.seconds:.0f}s / partial {desk_partial.seconds:.0f}s "
            f"(bound 1800s each); total {runtime:.0f}s")


def _psnr_at(history, iteration):
    for r in history.records:
        if r["iter"] == iteration:
            return r["val_psnr"]
    raise AssertionError(f"no record at iteration {iteration}")


@pytest.mark.slow
def test_criterion_6_depth_and_width_trends(desk_data, desk_full):
    allowance = 0.15
    k_curve = {}
    for depth in (2, 4):
        k_curve[depth] = _desk_run(desk_data, "full", depth=depth,
                                   max_iter=1500).history.records[-1]["val_psnr"]
    k_curve[6] = _psnr_at(desk_full.history, 1500)
    p_curve = {}
    for p in (25, 400):
        p_curve[p] = _desk_run(desk_data, "full", p=p,
                               max_iter=1500).history.records[-1]["val_psnr"]
    p_curve[100] = k_curve[6]
    k_ok = (k_curve[4] >= k_curve[2] - allowance
            and k_curve[6] >= k_curve[4] - allowance)
    p_ok = (p_curve[100] >= p_curve[25] - allowance
            and p_curve[400] >= p_curve[100] - allowance)
    _report(6, k_ok and p_ok,
            f"val PSNR non-decreasing at 1500 iters: K {{2:{k_curve[2]:.2f}, "
            f"4:{k_curve[4]:.2f}, 6:{k_curve[6]:.2f}}}, "
            f"P {{25:{p_curve[25]:.2f}, 100:{p_curve[100]:.2f}, "
            f"400:{p_curve[400]:.2f}}} (allowance {allowance} dB)")


@pytest.mark.slow
def test_criterion_7_determinism(desk_data, desk_full, tmp_path):
    rerun = _desk_run(desk_data, "full")
    paths = {}
    for tag, result in (("a", desk_full), ("b", rerun)):
        model = tmp_path / f"model_{tag}.json"
        hist = tmp_path / f"history_{tag}.csv"
        net.serialize(result.final_params, str(model))
        result.history.to_csv(str(hist))
        paths[tag] = (model.read_bytes(), hist.read_bytes())
    ok = paths["a"] == paths["b"]
    _report(7, ok, "two identical-config runs produced byte-identical "
                   f"model files ({len(paths['a'][0])} bytes) and history CSVs "
                   f"({len(paths['a'][1])} bytes)")


@pytest.mark.slow
def test_criterion_8_robustness_protocol(desk_data, desk_full):
    rows = dm.robustness_eval(desk_full.final_params, desk_data["val_set"],
                              [2.0, 5.0, 10.0, 20.0], seed=derive(DESK_SEED, 9))
    psnrs = [r["psnr"] for r in rows]
    allowance = 0.05
    monotone = all(b <= a + allowance for a, b in zip(psnrs, psnrs[1:]))
    detail = ", ".join(f"beta={r['beta']:g}: {r['psnr']:.2f} dB "
                       f"(drop {r['psnr_drop_pct']:.2f}%)" for r in rows)
    _report(8, monotone, f"PSNR non-increasing in beta ({allowance} dB "
                         f"allowance): {detail}")


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------


def test_criterion_9_property_suites(tmp_path):
    t0 = time.monotonic()
    checks = []

    # adjoint identities, 100 pairs over mixed operator kinds
    kinds = [ops.UniformBlur(3, 8), ops.Decimation(2, 8),
             ops.make_dense_analysis(7, 64, seed=1),
             ops.make_block_sparse_analysis(3, 2, 3, 8, seed=2, site_rule="fit"),
             ops.fuse_analysis([ops.make_dense_analysis(3, 64, seed=3),
                                ops.make_block_sparse_analysis(4, 4, 2, 8, seed=4,
                                                               site_rule="fit")])]
    worst = 0.0
    for t in range(100):
        op = kinds[t % len(kinds)]
        x = Stream(derive(0x91, t)).normal(op.in_dim)
        y = Stream(derive(0x92, t)).normal(op.out_dim)
        gap = abs(float(np.dot(op.apply(x), y)) - float(np.dot(x, op.apply_adjoint(y))))
        worst = max(worst, gap / (1.0 + np.linalg.norm(x) * np.linalg.norm(y)))
    checks.append(("adjoint", worst <= 1e-12))

    # Moreau identity and sigma-independence
    moreau = 0.0
    for t in range(50):
        x = Stream(derive(0x93, t)).normal(40) * 4
        for sigma in (0.1, 1.0, 10.0):
            via = x - sigma * prox_l1(x / sigma, 1.0 / sigma)
            moreau = max(moreau, float(np.abs(prox_conj_l1(x) - via).max()))
    checks.append(("moreau", moreau <= 1e-12))

    # nonexpansiveness
    nonexp = all(
        np.linalg.norm(prox_conj_l1(u) - prox_conj_l1(v))
        <= np.linalg.norm(u - v) + 1e-15
        for u, v in ((Stream(derive(0x94, t)).normal(32) * 5,
                      Stream(derive(0x95, t)).normal(32) * 5)
                     for t in range(100)))
    checks.append(("nonexpansive", nonexp))

    # norm bound vs SVD
    svd_ok = True
    for t in range(10):
        p, n = 3 + t % 5, 2 + (3 * t) % 7
        w = Stream(derive(0x96, t)).normal(p * n).reshape(p, n)
        est = ops.DenseAnalysis(w).norm()
        ref = np.linalg.svd(w, compute_uv=False)[0]
        svd_ok = svd_ok and abs(est - ref) <= 1e-6 * ref
    checks.append(("norm-vs-svd", svd_ok))

    # mask invariance under a few SGD steps
    a_op = ops.UniformBlur(3, 8)
    params = net.init_network(a_op, 2, [net.BlockSpec(3, 3, 2, "fit")], "full", seed=5)
    mask = [mask_dense(lp.analysis) for lp in params.layers]
    clean = synthetic_strokes(8, side=8, seed=6)
    zb = np.stack([degrade(clean[i], a_op, 10.0, derive(7, i)) for i in range(8)])
    for _ in range(5):
        out, trace = net.forward(params, zb, keep_trace=True)
        grads = bp.backward(params, clean, trace)
        tr.sgd_step(params, grads, 1e-7)
    mask_ok = all(not to_dense(lp.analysis)[m == 0].any()
                  for lp, m in zip(params.layers, mask))
    checks.append(("mask-invariance", mask_ok))

    # parser fuzz totality
    fuzz_ok = True
    for t in range(150):
        blob = bytes(Stream(derive(0x97, t)).integers(t % 96, 256).tolist())
        path = tmp_path / "fuzz.bin"
        path.write_bytes(blob)
        try:
            dm.load_idx(str(path))
        except dm.IdxParseError:
            pass
        except Exception:
            fuzz_ok = False
        path.write_bytes(b"P5" + blob)
        try:
            dm.load_pgm(str(path))
        except dm.PgmParseError:
            pass
        except Exception:
            fuzz_ok = False
    checks.append(("parser-fuzz", fuzz_ok))

    elapsed = time.monotonic() - t0
    ok = all(flag for _, flag in checks) and elapsed < 60.0
    detail = ", ".join(f"{name}:{'ok' if flag else 'FAIL'}" for name, flag in checks)
    _report(9, ok, f"{detail} ({elapsed:.1f}s, bound 60s)")
