import numpy as np
import pytest

from difftf.blocks import ModelFile
from difftf.datagen import (
    COLORED_NOISE_STD,
    H_O_TRUE,
    PWH_RMS_LEVELS,
    colored_noise,
    generate_pwh_quantized,
    generate_wh_colored,
    h2_norm,
    multisine,
    synthetic_pwh_truth,
    synthetic_wh_truth,
)
from difftf.quantized import bin_probabilities, quantize
from difftf.tf_core import frequency_response, impulse_response


class TestColoredNoise:
    def test_shaping_filter_coefficients(self):
        assert np.array_equal(H_O_TRUE.b, [1.0, -1.568, 0.902])
        assert np.array_equal(H_O_TRUE.a, [-1.901, 0.9409])

    def test_empirical_std_calibrated_via_impulse_energy(self):
        rng = np.random.default_rng(0)
        v, sigma_e = colored_noise(rng, 1_000_000)
        assert np.std(v) == pytest.approx(COLORED_NOISE_STD, rel=0.02)
        assert sigma_e == pytest.approx(COLORED_NOISE_STD / h2_norm(H_O_TRUE))

    def test_zero_target_std_gives_zero_noise(self):
        rng = np.random.default_rng(0)
        v, sigma_e = colored_noise(rng, 100, target_std=0.0)
        assert np.array_equal(v, np.zeros(100))

    def test_resonance_magnitude_matches_polynomial_evaluation(self):
        # poles at radius sqrt(0.9409) and angle acos(1.901 / (2 sqrt(0.9409)))
        radius = np.sqrt(0.9409)
        angle = np.arccos(1.901 / (2.0 * radius))
        f_res = angle / (2.0 * np.pi)
        got = np.abs(frequency_response(H_O_TRUE, f_res))
        z = np.exp(-2j * np.pi * f_res)
        direct = np.abs(1.0 - 1.568 * z + 0.902 * z**2) / np.abs(
            1.0 - 1.901 * z + 0.9409 * z**2
        )
        assert got == pytest.approx(direct, rel=1e-12)
        assert got > 10.0  # pronounced resonance


class TestMultisine:
    def test_exact_rms_over_period(self, rng):
        for rms in (0.1, 1.0):
            u = multisine(rng, 1024, rms, band=0.3)
            assert np.sqrt(np.mean(u**2)) == pytest.approx(rms, rel=1e-10)
            assert np.mean(u) == pytest.approx(0.0, abs=1e-12)

    def test_band_limits_spectrum(self, rng):
        T = 512
        u = multisine(rng, T, 1.0, band=0.2)
        spectrum = np.abs(np.fft.rfft(u))
        cutoff = int(0.2 * T)
        assert spectrum[cutoff + 1 :].max() < 1e-9 * spectrum[: cutoff + 1].max()

    def test_invalid_band_rejected(self, rng):
        with pytest.raises(ValueError):
            multisine(rng, 64, 1.0, band=0.6)

    @pytest.mark.parametrize("T, band", [(64, 0.3), (257, 0.49), (1000, 0.1), (4096, 0.3)])
    def test_matches_dense_cosine_sum(self, T, band):
        u = multisine(np.random.default_rng(7), T, 1.0, band)
        n_tones = int(np.floor(band * T))
        phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, n_tones)
        t = np.arange(T)[:, np.newaxis]
        k = np.arange(1, n_tones + 1)
        # (t * k) % T in integers keeps the cosine arguments below 2 pi + phase
        angle = 2.0 * np.pi * ((t * k) % T) / T + phases
        dense = np.sqrt(2.0 / n_tones) * np.cos(angle).sum(axis=1)
        assert np.abs(u - dense).max() < 1e-12


class TestWhColored:
    def test_reproducible_from_seed(self):
        a = generate_wh_colored(3, 500)
        b = generate_wh_colored(3, 500)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.u_test, b.u_test)

    def test_different_seeds_differ(self):
        a = generate_wh_colored(3, 200)
        b = generate_wh_colored(4, 200)
        assert not np.array_equal(a.u_train, b.u_train)

    def test_noise_component_has_target_std(self):
        ds = generate_wh_colored(0, 200_000)
        noise = ds.y_train - ds.y_clean_train
        assert np.std(noise) == pytest.approx(COLORED_NOISE_STD, rel=0.02)

    def test_truth_round_trips_and_reproduces_clean_output(self, tmp_path):
        ds = generate_wh_colored(1, 300)
        path = tmp_path / "truth.json"
        ds.truth.save(path)
        back = ModelFile.load(path)
        resim = back.simulate(ds.u_train[np.newaxis, :, np.newaxis])[0, :, 0]
        assert np.array_equal(resim, ds.y_clean_train)

    def test_clean_output_has_useful_scale(self):
        ds = generate_wh_colored(0, 50_000)
        # signal-to-noise must stay well above the 0.1 noise floor
        assert 0.5 < np.std(ds.y_clean_train) < 3.0


class TestPwhQuantized:
    def test_reproducible_from_seed(self):
        a = generate_pwh_quantized(2, T=256, realizations=1)
        b = generate_pwh_quantized(2, T=256, realizations=1)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.u, b.u)

    def test_observation_layout(self):
        ds = generate_pwh_quantized(0, T=256, realizations=2)
        assert ds.u.shape == (len(PWH_RMS_LEVELS) * 2, 256)
        assert ds.z.shape == ds.u.shape
        assert ds.z.dtype == np.int64
        assert ds.z.min() >= 0 and ds.z.max() <= 11

    def test_low_rms_rows_excite_few_bins(self):
        ds = generate_pwh_quantized(0, T=2048, realizations=2)
        lowest = ds.z[ds.rms_of_row == min(PWH_RMS_LEVELS)]
        # essentially the two bins around zero, with rare noise spill-over
        assert len(np.unique(lowest)) <= 4
        two_center = np.isin(lowest, [5, 6]).mean()
        assert two_center > 0.9
        highest = ds.z[ds.rms_of_row == max(PWH_RMS_LEVELS)]
        assert len(np.unique(highest)) >= 8

    def test_zero_input_zero_noise_lands_in_bin_five(self):
        truth = synthetic_pwh_truth()
        y = truth.simulate(np.zeros((1, 64, 1)))[0, :, 0]
        assert np.array_equal(y, np.zeros(64))
        ds = generate_pwh_quantized(0, T=64, realizations=1)
        z = quantize(y, ds.quantizer)
        assert np.all(z == 5)

    def test_quantized_histogram_matches_bin_probabilities(self):
        """Monte-Carlo self-consistency between the generator and likelihood."""
        ds = generate_pwh_quantized(0, T=128, realizations=1)
        truth = synthetic_pwh_truth()
        rng = np.random.default_rng(99)
        u = multisine(rng, 256, 0.775, band=0.3)
        y = truth.simulate(u[np.newaxis, :, np.newaxis])[0, :, 0]
        n_draws = 40_000
        t_probe = [17, 91, 200]
        for t in t_probe:
            draws = quantize(
                y[t] + ds.sigma_e * rng.standard_normal(n_draws), ds.quantizer
            )
            freqs = np.bincount(draws, minlength=12) / n_draws
            probs = bin_probabilities(np.array([y[t]]), ds.sigma_e, ds.quantizer)[0]
            se = np.sqrt(probs * (1 - probs) / n_draws) + 1e-9
            assert np.all(np.abs(freqs - probs) <= 4 * se)

    def test_truth_round_trips(self, tmp_path):
        ds = generate_pwh_quantized(5, T=128, realizations=1)
        path = tmp_path / "truth.json"
        ds.truth.save(path)
        back = ModelFile.load(path)
        resim = back.simulate(ds.u[:, :, np.newaxis])[:, :, 0]
        assert np.array_equal(resim, ds.y_latent)
        assert back.meta["thresholds"] == ds.quantizer.thresholds.tolist()

    def test_rms_levels_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            generate_pwh_quantized(0, T=64, rms_levels=(0.0, 0.5))


class TestTruthSystems:
    def test_wh_truth_filters_are_stable(self):
        truth = synthetic_wh_truth()
        for block in (truth.blocks[0], truth.blocks[2]):
            poles = np.roots(block.cell(0, 0).full_denominator())
            assert np.all(np.abs(poles) < 0.95)

    def test_pwh_truth_filters_are_stable(self):
        truth = synthetic_pwh_truth()
        for block in (truth.blocks[0], truth.blocks[2]):
            for o in range(block.out_channels):
                for i in range(block.in_channels):
                    poles = np.roots(block.cell(o, i).full_denominator())
                    assert np.all(np.abs(poles) < 0.95)

    def test_first_stage_filters_have_unit_impulse_energy(self):
        truth = synthetic_wh_truth()
        g = impulse_response(truth.blocks[0].cell(0, 0), 4096)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-9)
