import struct
import warnings

import numpy as np
import pytest

from pdnet import data as dm
from pdnet import network as net
from pdnet import operators as ops
from pdnet.rng import Stream, derive

from helpers import degrade, synthetic_strokes


# ---------------------------------------------------------------------------
# IDX parsing
# ---------------------------------------------------------------------------


def idx_bytes(images, rows, cols):
    head = struct.pack(">IIII", 0x00000803, len(images), rows, cols)
    return head + b"".join(bytes(img) for img in images)


def test_idx_round_trip_hand_built(tmp_path):
    imgs = [[0, 17, 255, 3], [200, 199, 1, 0]]
    path = tmp_path / "two.idx"
    path.write_bytes(idx_bytes(imgs, 2, 2))
    loaded = dm.load_idx(str(path))
    assert len(loaded) == 2
    assert loaded.shape[1] == 2
    assert np.array_equal(loaded[0].ravel(), [0.0, 17.0, 255.0, 3.0])
    assert np.array_equal(loaded[1].ravel(), [200.0, 199.0, 1.0, 0.0])


def test_idx_zero_images(tmp_path):
    path = tmp_path / "zero.idx"
    path.write_bytes(idx_bytes([], 28, 28))
    assert len(dm.load_idx(str(path))) == 0


def test_idx_truncation_reports_counts(tmp_path):
    path = tmp_path / "trunc.idx"
    path.write_bytes(idx_bytes([[1, 2, 3, 4]], 2, 2)[:-2])
    with pytest.raises(dm.IdxParseError, match="bytes"):
        dm.load_idx(str(path))


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 0, 2, 2))
    with pytest.raises(dm.IdxParseError, match="magic"):
        dm.load_idx(str(path))


def test_idx_label_validation(tmp_path):
    imgs = tmp_path / "img.idx"
    imgs.write_bytes(idx_bytes([[1, 2, 3, 4]], 2, 2))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x07")
    assert len(dm.load_idx(str(imgs), str(labels))) == 1
    labels.write_bytes(struct.pack(">II", 0x00000801, 9) + b"\x07" * 9)
    with pytest.raises(dm.IdxParseError, match="count"):
        dm.load_idx(str(imgs), str(labels))


def test_idx_fuzz_never_crashes(tmp_path):
    for t in range(200):
        blob = bytes(Stream(derive(0xF022, t)).integers(t % 64, 256).tolist())
        path = tmp_path / "fuzz.idx"
        path.write_bytes(blob)
        try:
            dm.load_idx(str(path))
        except dm.IdxParseError:
            pass  # structured failure is the contract


# ---------------------------------------------------------------------------
# PGM parsing
# ---------------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    grid = (Stream(1).uniform(35) * 255).reshape(5, 7)
    path = tmp_path / "a.pgm"
    dm.save_pgm(str(path), grid)
    loaded = dm.load_pgm(str(path))
    assert loaded.shape == (5, 7)
    assert np.array_equal(loaded, np.rint(grid))


def test_pgm_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n2 2\n255\n\x00\x01\x02\x03")
    loaded = dm.load_pgm(str(path))
    assert np.array_equal(loaded.ravel(), [0, 1, 2, 3])


@pytest.mark.parametrize("blob,match", [
    (b"P2\n2 2\n255\n\x00\x01\x02\x03", "P5"),
    (b"P5\n2 2\n65535\n" + b"\x00" * 8, "maxval"),
    (b"P5\n2 2\n255\n\x00", "truncated"),
    (b"P5\nx 2\n255\n\x00\x01\x02\x03", "numeric"),
])
def test_pgm_header_violations(tmp_path, blob, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(dm.PgmParseError, match=match):
        dm.load_pgm(str(path))


def test_pgm_fuzz_never_crashes(tmp_path):
    for t in range(200):
        blob = b"P5" + bytes(Stream(derive(0xF199, t)).integers(t % 48, 256).tolist())
        path = tmp_path / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            dm.load_pgm(str(path))
        except dm.PgmParseError:
            pass


# ---------------------------------------------------------------------------
# patches / degradation / splits
# ---------------------------------------------------------------------------


def test_patches_whole_image():
    img = (Stream(2).uniform(16) * 255).reshape(4, 4)
    patches = dm.extract_patches(img, 4, 3, seed=1)
    assert len(patches) == 3
    for p in patches:
        assert np.array_equal(p, img.ravel())


def test_patches_zero_count():
    img = np.zeros((4, 4))
    assert len(dm.extract_patches(img, 2, 0, seed=1)) == 0


def test_patches_stay_in_bounds_and_deterministic():
    raster = (Stream(3).uniform(117) * 255).reshape(9, 13)
    a = dm.extract_patches(raster, 5, 40, seed=9)
    b = dm.extract_patches(raster, 5, 40, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
        assert pa.size == 5 * 5 and np.all(np.isfinite(pa))


def test_degrade_identity_zero_noise():
    ident = ops.IdentityOperator(10)
    x = Stream(5).uniform(10) * 255
    assert np.array_equal(degrade(x, ident, 0.0, seed=1), x)


def test_degrade_deterministic():
    a = ops.UniformBlur(3, 4)
    x = Stream(6).uniform(16) * 255
    z1 = degrade(x, a, 20.0, seed=44)
    z2 = degrade(x, a, 20.0, seed=44)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, degrade(x, a, 20.0, seed=45))


def test_degrade_noise_variance():
    ident = ops.IdentityOperator(1_000_000)
    x = np.zeros(1_000_000)
    z = degrade(x, ident, 20.0, seed=7)
    var = z.var()
    bound = 3.0 * 400.0 * np.sqrt(2.0 / 1_000_000)  # 3 sigma of the var estimate
    assert abs(var - 400.0) <= bound


def test_degrade_set_reproducible():
    a = ops.UniformBlur(3, 4)
    clean = (Stream(8).uniform(5 * 16) * 255).reshape(5, 16)
    d1 = dm.degrade_set(clean, 4, a, 20.0, seed=3)
    d2 = dm.degrade_set(clean, 4, a, 20.0, seed=3)
    assert np.array_equal(d1.degraded, d2.degraded)
    assert d1.degradation.spec() == {"kind": "uniform-blur", "size_or_factor": 3,
                              "image_side": 4}


_DEGRADE_OPS = {"blur": lambda: ops.UniformBlur(3, 8), "decimation": lambda: ops.Decimation(2, 8),
                "identity": lambda: ops.IdentityOperator(64)}


@pytest.mark.parametrize("alpha", [20.0, 0.0])
@pytest.mark.parametrize("kind", list(_DEGRADE_OPS))
def test_degrade_set_rows_equal_degrade_bitwise(kind, alpha):
    # 150 rows: three of network.row_pieces' 50-row pieces
    a = _DEGRADE_OPS[kind]()
    clean = (Stream(derive(0xDE6, 1)).uniform(150 * 64) * 255).reshape(150, 64)
    ds = dm.degrade_set(clean, 8, a, alpha, seed=derive(0xDE6, 2))
    assert len(net.row_pieces(len(ds))) == 3
    want = np.stack([degrade(clean[s], a, alpha, derive(derive(0xDE6, 2), s))
                     for s in range(len(clean))])
    assert ds.degraded.tobytes() == want.tobytes()


def test_degrade_set_overflow_raises_overflow_error():
    a = ops.IdentityOperator(16)
    with pytest.raises(OverflowError, match="noise level 1e\\+308 overflows float64"):
        dm.degrade_set(np.full((70, 16), 1e308), 4, a, 1e308, seed=1)


def test_split_all_train():
    ds = dm.degrade_set(np.ones((6, 16)), 4, ops.IdentityOperator(16), 0.0, seed=1)
    tr, va, te = dm.split(ds, 1.0, 0.0, seed=2)
    assert len(tr) == 6 and len(va) == 0 and len(te) == 0


def test_split_disjoint_exhaustive_deterministic():
    clean = (Stream(9).uniform(10 * 4) * 255).reshape(10, 4)
    ds = dm.degrade_set(clean, 2, ops.IdentityOperator(4), 5.0, seed=1)
    tr1, va1, te1 = dm.split(ds, 0.5, 0.3, seed=5)
    tr2, va2, te2 = dm.split(ds, 0.5, 0.3, seed=5)
    assert np.array_equal(tr1.clean, tr2.clean)
    assert len(tr1) == 5 and len(va1) == 3 and len(te1) == 2
    stacked = np.vstack([tr1.clean, va1.clean, te1.clean])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(clean, axis=0))


def test_split_rejects_bad_fractions():
    ds = dm.degrade_set(np.ones((4, 4)), 2, ops.IdentityOperator(4), 0.0, seed=1)
    with pytest.raises(ValueError):
        dm.split(ds, 0.8, 0.4, seed=1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_psnr_zero_db_at_peak_mse():
    a = np.zeros(16)
    b = np.full(16, 255.0)
    assert dm.psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_uniform_one_gray_level():
    a = np.zeros(100)
    assert dm.psnr(a, a + 1.0) == pytest.approx(10 * np.log10(255.0**2), rel=1e-12)


def test_psnr_symmetric_and_identical_sentinel():
    x = Stream(4).uniform(64) * 255
    y = x + Stream(5).normal(64)
    assert dm.psnr(x, y) == dm.psnr(y, x)
    assert dm.psnr(x, x) == float("inf")


def test_ssim_identical_is_one():
    x = Stream(8).uniform(28 * 28) * 255
    assert dm.ssim(x, x, side=28) == pytest.approx(1.0, abs=1e-12)


def test_ssim_inversion_is_low_on_checkerboard():
    side = 16
    grid = np.indices((side, side)).sum(axis=0) % 2 * 255.0
    x = grid.ravel()
    assert dm.ssim(x, 255.0 - x, side=side) < 0.2


def test_ssim_constant_images_reduce_to_luminance_term():
    c1 = (0.01 * 255) ** 2
    for base, shift in ((40.0, 12.0), (128.0, -30.0)):
        x = np.full(16 * 16, base)
        y = np.full(16 * 16, base + shift)
        lum = (2 * base * (base + shift) + c1) / (base**2 + (base + shift) ** 2 + c1)
        assert dm.ssim(x, y, side=16) == pytest.approx(lum, rel=1e-12)


def test_ssim_small_image_fallback():
    x = Stream(9).uniform(36) * 255
    y = x + Stream(10).normal(36) * 10
    val = dm.ssim(x, y, side=6)
    assert -1.0 <= val <= 1.0
    assert dm.ssim(x, x, side=6) == pytest.approx(1.0)


def test_ssim_range():
    x = Stream(11).uniform(28 * 28) * 255
    y = Stream(12).uniform(28 * 28) * 255
    assert -1.0 <= dm.ssim(x, y, side=28) <= 1.0


def _stack_pair(side, rows, seed):
    """A clean stack and a noisy copy of it whose row 3 is left identical."""
    stream = Stream(derive(seed, side, rows))
    x = stream.uniform(rows * side * side).reshape(rows, side * side) * 255
    y = x + stream.normal(x.size).reshape(x.shape) * 20
    y[3] = x[3]
    return x, y


@pytest.mark.parametrize("side,rows", [(28, 7), (6, 7), (28, 130), (6, 130)],
                         ids=["gaussian", "global-window", "gaussian-pieces",
                              "global-window-pieces"])
def test_stacked_metrics_equal_per_row_calls_bitwise(side, rows):
    # 130 rows run as pieces of 65; 7 rows as one piece
    x, y = _stack_pair(side, rows, seed=31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the identical row's 255^2 / 0 stays quiet
        ps = dm.psnr(y, x)
        ss = dm.ssim(y, x, side=side)
    assert ps.shape == ss.shape == (rows,)
    assert ps.tolist() == [dm.psnr(y[i], x[i]) for i in range(rows)]
    assert ss.tolist() == [dm.ssim(y[i], x[i], side=side) for i in range(rows)]
    assert ps[3] == np.inf and np.isfinite(np.delete(ps, 3)).all()
    # the global window squares its means by pow: 1 to the last bit there
    assert ss[3] == pytest.approx(1.0, abs=1e-15)


def test_metrics_one_pair_is_a_float_and_shapes_must_match():
    x, y = _stack_pair(6, 4, seed=33)
    assert type(dm.psnr(y[0], x[0])) is float
    assert type(dm.ssim(y[0], x[0], side=6)) is float
    with pytest.raises(ValueError, match="shape mismatch"):
        dm.psnr(y, x[:, :-1])
    with pytest.raises(ValueError, match="shape mismatch"):
        dm.ssim(y[:3], x, side=6)
    with pytest.raises(ValueError, match="shape mismatch"):
        dm.psnr(y[0], x)
    with pytest.raises(ValueError, match="6x6"):
        dm.ssim(y[:, :-1], x[:, :-1], side=6)
    with pytest.raises(ValueError, match="stack"):
        dm.psnr(y.reshape(4, 6, 6), x.reshape(4, 6, 6))


# ---------------------------------------------------------------------------
# robustness protocol and synthetic data
# ---------------------------------------------------------------------------


def _trained_stub():
    side = 8
    a = ops.UniformBlur(3, side)
    params = net.init_network(a, 2, [net.DenseSpec(6)], "full", seed=3)
    clean = synthetic_strokes(6, side=side, seed=21)
    return params, dm.degrade_set(clean, side, a, 10.0, seed=22)


def test_robustness_beta_zero_drop_is_zero():
    params, ds = _trained_stub()
    rows = dm.robustness_eval(params, ds, [2.0, 5.0], seed=1)
    assert rows[0]["beta"] == 0.0
    assert rows[0]["psnr_drop_pct"] == 0.0
    assert rows[0]["ssim_drop_pct"] == 0.0
    assert [r["beta"] for r in rows] == [0.0, 2.0, 5.0]


def test_robustness_drop_is_finite_when_beta_zero_is_exact(monkeypatch):
    # a perfect restoration at beta = 0 has PSNR inf; (b - r) / b has the
    # limit 0 for a row that is also exact and 1 for any finite row
    params, ds = _trained_stub()
    real_forward = dm.forward

    def exact_at_beta_zero(p, z):
        if np.array_equal(z, ds.degraded):
            return ds.clean.copy(), None
        return real_forward(p, z)

    monkeypatch.setattr(dm, "forward", exact_at_beta_zero)
    rows = dm.robustness_eval(params, ds, [0.0, 2.0], seed=1)
    assert [r["beta"] for r in rows] == [0.0, 2.0]
    assert rows[0]["psnr"] == np.inf and np.isfinite(rows[1]["psnr"])
    assert [r["psnr_drop_pct"] for r in rows] == [0.0, 100.0]


def test_robustness_without_betas_is_the_plain_pass(monkeypatch):
    params, ds = _trained_stub()
    out, _ = dm.forward(params, ds.degraded)

    def no_noise(seed):
        raise AssertionError("eta drawn although no nonzero beta was asked for")

    monkeypatch.setattr(dm, "Stream", no_noise)
    rows = dm.robustness_eval(params, ds, [], seed=1)
    assert len(rows) == 1 and rows[0]["beta"] == 0.0
    assert rows[0]["psnrs"] == dm.psnr(out, ds.clean).tolist()
    assert rows[0]["ssims"] == dm.ssim(out, ds.clean, side=ds.side).tolist()


def test_robustness_noise_is_one_stream_per_row():
    side = 8
    a = ops.UniformBlur(3, side)
    params = net.init_network(a, 2, [net.DenseSpec(6)], "full", seed=3)
    ds = dm.degrade_set(synthetic_strokes(70, side=side, seed=23), side, a, 10.0, seed=24)
    eta = np.stack([Stream(derive(9, dm._TAG_EXTRA, s)).normal(side * side)
                    for s in range(len(ds))])
    out, _ = dm.forward(params, ds.degraded + 2.0 * eta)
    rows = dm.robustness_eval(params, ds, [2.0], seed=9)
    assert rows[1]["psnrs"] == dm.psnr(out, ds.clean).tolist()


def test_robustness_deterministic():
    params, ds = _trained_stub()
    r1 = dm.robustness_eval(params, ds, [2.0], seed=9)
    r2 = dm.robustness_eval(params, ds, [2.0], seed=9)
    assert r1 == r2


def test_synthetic_strokes_deterministic_and_in_range():
    a = synthetic_strokes(5, side=16, seed=77)
    b = synthetic_strokes(5, side=16, seed=77)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 255.0
    assert a.max() > 100.0  # strokes actually drawn
    # distinct images
    assert not np.array_equal(a[0], a[1])
