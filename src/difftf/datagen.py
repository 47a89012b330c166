"""Synthetic benchmark-style data with fully known ground truth.

Two generators mirror the structure of the experiments this package targets:
a Wiener-Hammerstein system whose output is disturbed by colored noise with a
fixed second-order spectrum, and a parallel Wiener-Hammerstein system whose
output is observed only through a 12-bin quantizer at several excitation
levels. Ground-truth systems use fixed stable filters (poles well inside the
unit circle) and smooth polynomial nonlinearities so every dataset is exactly
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockModel, MimoTransferFunction, ModelFile, PolyStatic
from .quantized import Quantizer, quantize
from .tf_core import TransferFunction, filter_forward, impulse_response

# Colored-noise shaping filter and its target standard deviation
H_O_TRUE = TransferFunction(
    b=np.array([1.0, -1.568, 0.902]),
    a=np.array([-1.901, 0.9409]),
    n_k=0,
)
COLORED_NOISE_STD = 0.1

PWH_RMS_LEVELS = (0.1, 0.325, 0.55, 0.775, 1.0)
PWH_QUANTIZER = Quantizer.uniform(12, -1.0, 1.0)


def h2_norm(params):
    """sqrt(sum g_t^2) from the first 8192 samples of the impulse response."""
    return float(np.linalg.norm(impulse_response(params, 8192)))


def tf_from_zpk(zeros, poles, gain=1.0, n_k=0):
    """Filter from zero/pole lists, scaled so that its H2 norm equals gain."""
    b = np.real(np.poly(zeros)) if len(zeros) else np.ones(1)
    a_full = np.real(np.poly(poles)) if len(poles) else np.ones(1)
    scale = gain / h2_norm(TransferFunction(b=b, a=a_full[1:], n_k=n_k))
    return TransferFunction(b=scale * b, a=a_full[1:], n_k=n_k)


def _pair(radius, angle):
    return [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]


def synthetic_wh_truth():
    """Fixed ground-truth Wiener-Hammerstein system."""
    g1 = tf_from_zpk([0.5], _pair(0.9, np.pi / 6), n_k=1)
    nonlin = PolyStatic([[0.0, 1.0, 0.25, -0.15]])
    g2 = tf_from_zpk([-0.4], _pair(0.75, 1.2), gain=1.0, n_k=0)
    return BlockModel([
        MimoTransferFunction.siso(g1),
        nonlin,
        MimoTransferFunction.siso(g2),
    ])


def _grid(cells, n_b, n_a):
    """Filter grid of delay 1 from rows of SISO filters, each cell's
    coefficients zero-padded to the grid's orders."""
    b = [[np.pad(tf.b, (0, n_b + 1 - tf.b.size)) for tf in row] for row in cells]
    a = [[np.pad(tf.a, (0, n_a - tf.a.size)) for tf in row] for row in cells]
    return MimoTransferFunction(len(cells), len(cells[0]), n_b, n_a, n_k=1, b=b, a=a)


def synthetic_pwh_truth():
    """Fixed ground-truth two-branch parallel Wiener-Hammerstein system."""
    g1 = _grid([[tf_from_zpk([0.3], _pair(0.85, 0.35), n_k=1)],
                [tf_from_zpk([-0.2], _pair(0.8, 1.1), n_k=1)]], n_b=2, n_a=2)
    nonlin = PolyStatic([
        [0.0, 1.0, 0.08, -0.12],
        [0.0, 0.8, 0.15, -0.1],
    ])
    # output gains put the lowest excitation level inside the two bins
    # around zero while the highest level sweeps most of the +-1 range
    g2 = _grid([[tf_from_zpk([0.1], _pair(0.7, 0.5), gain=0.17, n_k=1),
                 tf_from_zpk([-0.3], _pair(0.65, 1.6), gain=0.17, n_k=1)]], n_b=2, n_a=2)
    return BlockModel([g1, nonlin, g2])


def colored_noise(rng, T, target_std=COLORED_NOISE_STD):
    """White Gaussian noise shaped by H_O_TRUE, calibrated via its impulse
    energy so the output standard deviation equals target_std."""
    sigma_e = target_std / h2_norm(H_O_TRUE)
    e = rng.normal(0.0, sigma_e, T)
    return filter_forward(H_O_TRUE, e), sigma_e


def multisine(rng, T, rms, band=0.3):
    """Random-phase multisine with a flat spectrum on lines 1..floor(band*T).

    band is the upper excited frequency in cycles per sample (< 0.5). The rms
    over the exact period equals the requested value.
    """
    n_tones = int(np.floor(band * T))
    if not 1 <= n_tones <= (T - 1) // 2:
        raise ValueError("band must leave at least one excitable line below Nyquist")
    amplitude = rms * np.sqrt(2.0 / n_tones)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_tones)
    # sum_k cos(2 pi k t / T + phase_k) as an inverse FFT of the line spectrum
    spectrum = np.zeros(T // 2 + 1, dtype=complex)
    spectrum[1 : n_tones + 1] = np.exp(1j * phases)
    return (amplitude * T / 2) * np.fft.irfft(spectrum, n=T)


@dataclass
class WhColoredDataset:
    u_train: np.ndarray          # (T,)
    y_clean_train: np.ndarray    # (T,)
    y_train: np.ndarray          # (T,) clean + colored noise
    u_test: np.ndarray           # (test_T,)
    y_test: np.ndarray           # (test_T,) noiseless
    truth: ModelFile
    sigma_e: float


def generate_wh_colored(seed, T, test_T=None):
    """Wiener-Hammerstein data with additive colored measurement noise."""
    if T < 1:
        raise ValueError("T must be >= 1")
    test_T = int(test_T) if test_T else max(1, T // 2)
    rng = np.random.default_rng(seed)
    system = synthetic_wh_truth()
    u_train = rng.normal(0.0, 1.0, T)
    y_clean = system.simulate(u_train)[0, :, 0]
    v, sigma_e = colored_noise(rng, T)
    u_test = rng.normal(0.0, 1.0, test_T)
    y_test = system.simulate(u_test)[0, :, 0]
    truth = ModelFile(
        system,
        noise_filter=H_O_TRUE,
        log_sigma_e=float(np.log(sigma_e)),
        meta={
            "kind": "wh-colored",
            "seed": int(seed),
            "T": int(T),
            "test_T": int(test_T),
            "excitation": {"kind": "white-noise", "std": 1.0},
            "colored_noise_std": COLORED_NOISE_STD,
        },
    )
    return WhColoredDataset(
        u_train=u_train,
        y_clean_train=y_clean,
        y_train=y_clean + v,
        u_test=u_test,
        y_test=y_test,
        truth=truth,
        sigma_e=sigma_e,
    )


@dataclass
class PwhQuantizedDataset:
    u: np.ndarray          # (B, T) training inputs
    z: np.ndarray          # (B, T) integer bin observations
    y_latent: np.ndarray   # (B, T) unobserved noiseless outputs
    rms_of_row: np.ndarray
    u_test: np.ndarray     # (B_test, T)
    y_test: np.ndarray     # (B_test, T) noiseless
    quantizer: Quantizer
    truth: ModelFile
    sigma_e: float


def generate_pwh_quantized(seed, T=4096, rms_levels=PWH_RMS_LEVELS, realizations=4,
                           band=0.3, sigma_e=0.03):
    """Parallel WH data observed through the 12-bin quantizer.

    One multisine row per (rms level, realization); low rms levels excite only
    the two bins around zero. Observations are z = Q(y + e) with white
    Gaussian e of standard deviation sigma_e. The test set has two
    realizations per rms level.
    """
    if min(rms_levels) <= 0:
        raise ValueError("rms levels must be positive")
    rng = np.random.default_rng(seed)
    system = synthetic_pwh_truth()
    qz = PWH_QUANTIZER

    def rows(n_real):
        u_rows, rms_rows = [], []
        for rms in rms_levels:
            for _ in range(n_real):
                u_rows.append(multisine(rng, T, rms, band))
                rms_rows.append(rms)
        return np.asarray(u_rows), np.asarray(rms_rows)

    u, rms_of_row = rows(realizations)
    y_latent = system.simulate(u[:, :, np.newaxis])[:, :, 0]
    z = quantize(y_latent + rng.normal(0.0, sigma_e, y_latent.shape), qz)
    u_test, _ = rows(2)
    y_test = system.simulate(u_test[:, :, np.newaxis])[:, :, 0]
    truth = ModelFile(
        system,
        log_sigma_e=float(np.log(sigma_e)),
        meta={
            "kind": "pwh-quantized",
            "seed": int(seed),
            "T": int(T),
            "excitation": {
                "kind": "multisine",
                "rms_levels": list(rms_levels),
                "band": float(band),
            },
            "realizations": int(realizations),
            "thresholds": qz.thresholds.tolist(),
        },
    )
    return PwhQuantizedDataset(
        u=u,
        z=z,
        y_latent=y_latent,
        rms_of_row=rms_of_row,
        u_test=u_test,
        y_test=y_test,
        quantizer=qz,
        truth=truth,
        sigma_e=float(sigma_e),
    )
