"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live).
The trend test (criterion 4) runs the full 100-trial reference preset and
takes a few minutes; everything else finishes in seconds.
"""

import numpy as np
from scipy import stats

from bdcs import (
    ArrayConfig,
    DictionaryMetrics,
    MatrixChannel,
    Observation,
    PathParam,
    RecoveryConfig,
    SideInformation,
    SparsityProfile,
    block_metrics,
    block_sparse_precoding,
    bsomp,
    build_angular_dictionary,
    build_polar_dictionary,
    make_pilot_matrix,
    measurement_matrix,
    nmse,
    optimal_precoder,
    partition_boundary,
    rayleigh_distance,
    sparsity_profile,
    sparsity_upper_limit,
    spectral_efficiency,
    synthesize_matrix_channel,
)
from bdcs.bench import ExperimentConfig, run_nmse_vs_distance
from helpers import block_sparse_instance, omp_reference, random_dictionary


def report(number, description, ok):
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_01_bcs_degenerates_to_cs():
    rng = np.random.default_rng(12345)
    mismatches = 0
    for trial in range(200):
        dictionary = random_dictionary(rng, 64, 128, 1)
        pilot = make_pilot_matrix(32, 64, seed=trial)
        mm = measurement_matrix(pilot, dictionary)
        k = trial % 4 + 1
        snr = float(rng.uniform(0.0, 30.0))
        _, obs, _ = block_sparse_instance(rng, mm, k, snr)
        result = bsomp(mm, obs, RecoveryConfig(k, 0.0))
        ref_support, ref_coef = omp_reference(mm.entries, obs.per_subcarrier[0], k)
        same_support = list(result.support_blocks) == ref_support
        same_coef = np.allclose(
            result.coefficients[0], ref_coef / mm.column_scales, atol=1e-10
        )
        mismatches += not (same_support and same_coef)
    report(
        1,
        f"single-column blocks reproduce plain OMP on 200 instances "
        f"({200 - mismatches}/200 identical)",
        mismatches == 0,
    )


def test_criterion_02_exact_recovery_noiseless():
    rng = np.random.default_rng(777)
    dictionary = random_dictionary(rng, 64, 126, 3)
    pilot = make_pilot_matrix(32, 64, seed=9)
    mm = measurement_matrix(pilot, dictionary)
    ok_trials = 0
    for _ in range(500):
        x, obs, truth = block_sparse_instance(rng, mm, 2, np.inf)
        result = bsomp(mm, obs, RecoveryConfig(2, 0.0))
        truth_h = (x / mm.column_scales) @ dictionary.atoms.T
        good = set(result.support_blocks) == truth and nmse(
            result.reconstructed_channels, truth_h
        ) < -150.0
        ok_trials += good
    rate = ok_trials / 500
    report(
        2,
        f"noiseless 2-block support exactly recovered with NMSE < -150 dB "
        f"in {rate:.1%} of 500 trials (needs >= 99%)",
        rate >= 0.99,
    )


def test_criterion_03_polar_dictionary_size():
    dictionary = build_polar_dictionary(ArrayConfig(256, 30e9))
    g = dictionary.num_atoms
    report(
        3,
        f"polar dictionary at N=256 has {g} columns (window [1870, 2530], > 1024)",
        1870 <= g <= 2530 and g > 4 * 256,
    )


def test_criterion_04_distance_trend_reproduction():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.pilot_count * 2 == cfg.array.num_antennas  # Q/N = 0.5
    points = run_nmse_vs_distance(cfg)
    table = {(p.x, p.method): p.mean_db for p in points}
    xs = sorted({p.x for p in points})
    curve = {m: np.array([table[(x, m)] for x in xs]) for m in cfg.methods}

    ls_mean = curve["ls"].mean()
    cs_gain_ok = all(
        curve[m].mean() <= ls_mean - 5.0 for m in cfg.methods if m != "ls"
    )

    ang, pol = curve["bsomp_angular"], curve["bsomp_polar"]
    inner_ok = bool(np.all(pol[:3] < ang[:3]))
    outer_ok = bool(np.all(ang[-3:] <= pol[-3:] + 1.0))

    comp = curve["complete_bdcs"]
    better = np.minimum(ang, pol)
    within = int(np.sum(comp <= better + 0.5))
    comp_ok = within >= int(np.ceil(0.8 * len(xs)))

    report(
        4,
        "reference preset trends: (a) CS methods beat LS by >= 5 dB "
        f"[{cs_gain_ok}], (b) polar wins the inner 3 points and angular is "
        f"within 1 dB at the outer 3 [{inner_ok and outer_ok}], (c) combined "
        f"router within 0.5 dB of the better domain at {within}/{len(xs)} points",
        cs_gain_ok and inner_ok and outer_ok and comp_ok,
    )


def _bmmv_rate_pair(mm, snr_db, trials, seed):
    """Paired single-carrier vs 4-carrier support recovery rates."""
    rng = np.random.default_rng(seed)
    hits1 = hits4 = 0
    for _ in range(trials):
        _, obs4, truth = block_sparse_instance(rng, mm, 2, snr_db, num_subcarriers=4)
        obs1 = Observation(obs4.per_subcarrier[:1], obs4.noise_variance, snr_db)
        cfg = RecoveryConfig(2, 0.0)
        hits1 += set(bsomp(mm, obs1, cfg).support_blocks) == truth
        hits4 += set(bsomp(mm, obs4, cfg).support_blocks) == truth
    return hits1 / trials, hits4 / trials


def test_criterion_05_bmmv_gain():
    rng = np.random.default_rng(42)
    dictionary = random_dictionary(rng, 64, 128, 4)
    mm = measurement_matrix(make_pilot_matrix(32, 64, seed=7), dictionary)

    # locate the SNR where single-carrier recovery sits nearest 50%
    candidates = []
    for snr in range(-6, 5):
        rate1, _ = _bmmv_rate_pair(mm, float(snr), 200, seed=1000 + snr)
        candidates.append((abs(rate1 - 0.5), float(snr), rate1))
    _, snr_star, rate_near = min(candidates)
    assert 0.2 <= rate_near <= 0.8, "calibration failed to bracket the 50% point"

    rate1, rate4 = _bmmv_rate_pair(mm, snr_star, 500, seed=2026)
    report(
        5,
        f"joint 4-subcarrier scoring lifts support recovery from {rate1:.1%} "
        f"to {rate4:.1%} at {snr_star:+.0f} dB (needs >= +10 points)",
        rate4 >= rate1 + 0.10,
    )


def test_criterion_06_temporal_side_information_gain():
    rng = np.random.default_rng(42)
    dictionary = random_dictionary(rng, 64, 128, 4)
    mm = measurement_matrix(make_pilot_matrix(32, 64, seed=7), dictionary)
    trial_rng = np.random.default_rng(606)
    base_hits = aided_hits = 0
    n_plus = n_minus = 0
    for _ in range(500):
        _, obs, truth = block_sparse_instance(trial_rng, mm, 2, 0.0)
        cfg = RecoveryConfig(2, 0.0)
        base = set(bsomp(mm, obs, cfg).support_blocks) == truth
        si = SideInformation(tuple(sorted(truth)), temporal_gain=1.0, temporal_width=1.0)
        aided = set(bsomp(mm, obs, cfg, si).support_blocks) == truth
        base_hits += base
        aided_hits += aided
        n_plus += aided and not base
        n_minus += base and not aided
    p_value = stats.binomtest(n_plus, n_plus + n_minus, alternative="greater").pvalue
    report(
        6,
        f"correct-support weighting: {base_hits/500:.1%} -> {aided_hits/500:.1%} "
        f"at 0 dB (discordant {n_plus}+/{n_minus}-, sign test p={p_value:.2e})",
        aided_hits >= base_hits and p_value < 0.05,
    )


def test_criterion_07_energy_spread():
    arr = ArrayConfig(256, 30e9)
    dictionary = build_angular_dictionary(arr, oversampling=2, block_length=1)
    rd = rayleigh_distance(arr)
    profile = sparsity_profile(
        arr, dictionary, [0.05 * rd, 1.0 * rd], eta=0.95, trials=100, seed=7
    )
    ratio = profile.mean_taps[0] / profile.mean_taps[1]
    report(
        7,
        f"95%-energy taps: {profile.mean_taps[0]:.1f} at 0.05x Rayleigh vs "
        f"{profile.mean_taps[1]:.1f} at 1.0x (ratio {ratio:.2f}, needs >= 2)",
        ratio >= 2.0,
    )


def test_criterion_08_precoding_invariants():
    rng = np.random.default_rng(88)
    tx = ArrayConfig(64, 30e9)
    rx = ArrayConfig(4, 30e9)
    dictionary = build_angular_dictionary(tx, 1, 2)
    rd = rayleigh_distance(tx)

    invariants_ok = True
    for _ in range(100):
        params = [
            PathParam(
                float(rng.uniform(-0.8, 0.8)),
                float(rng.uniform(0.15, 0.9) * rd),
                complex((rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)),
            )
            for _ in range(6)
        ]
        rx_angles = [float(rng.uniform(-1, 1)) for _ in range(6)]
        channel = MatrixChannel(synthesize_matrix_channel(tx, rx, params, rx_angles))
        f_opt = optimal_precoder(channel, 2)
        pair = block_sparse_precoding(f_opt, dictionary, 4)
        modulus_ok = np.allclose(np.abs(pair.f_rf), 1 / np.sqrt(64), atol=1e-10)
        power_ok = abs(np.linalg.norm(pair.combined) ** 2 - 2.0) <= 1e-8
        se_opt = spectral_efficiency(channel, f_opt, 0.0).spectral_efficiency
        se_hyb = spectral_efficiency(channel, pair, 0.0).spectral_efficiency
        invariants_ok &= modulus_ok and power_ok and se_hyb <= se_opt + 1e-9

    # on-grid 4-path channel with a wide chain budget approaches the optimum
    single = build_angular_dictionary(tx, 1, 1)
    grid_angles = [single.angles[i] for i in (8, 22, 40, 57)]
    params = [
        PathParam(a, np.inf, complex(rng.standard_normal() + 1j * rng.standard_normal()))
        for a in grid_angles
    ]
    rx_angles = [float(rng.uniform(-1, 1)) for _ in range(4)]
    channel = MatrixChannel(synthesize_matrix_channel(tx, rx, params, rx_angles))
    f_opt = optimal_precoder(channel, 2)
    pair = block_sparse_precoding(f_opt, single, 8)
    se_opt = spectral_efficiency(channel, f_opt, 0.0).spectral_efficiency
    se_hyb = spectral_efficiency(channel, pair, 0.0).spectral_efficiency
    near_optimal = se_hyb >= 0.9 * se_opt

    report(
        8,
        "hybrid precoders keep constant modulus, the stream power budget, and "
        f"never beat the SVD precoder; on-grid 8-chain run reaches "
        f"{se_hyb / se_opt:.1%} of optimal (needs >= 90%)",
        invariants_ok and near_optimal,
    )


def test_criterion_09_coherence_oracles():
    from test_dictionaries import brute_force_block_metrics, brute_force_coherence

    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(50):
        block_length = (1, 2, 4)[trial % 3]
        dictionary = random_dictionary(rng, 16, 40, block_length)
        metrics = block_metrics(dictionary.atoms, dictionary.partition)
        mu_ref = brute_force_coherence(dictionary.atoms)
        mu_b_ref, nu_ref = brute_force_block_metrics(dictionary.atoms, block_length)
        worst = max(
            worst,
            abs(metrics.coherence - mu_ref),
            abs(metrics.block_coherence - mu_b_ref),
            abs(metrics.sub_coherence - nu_ref),
        )
    report(
        9,
        f"coherence and block metrics match brute force on 50 dictionaries "
        f"(worst deviation {worst:.1e})",
        worst < 1e-12,
    )


def test_criterion_10_partition_sanity():
    limit = sparsity_upper_limit(DictionaryMetrics(1 / 3, 1 / 3, 0.0), 1)

    below = SparsityProfile((1.0, 2.0, 3.0), (2.0, 2.0, 1.0), 0.95)
    above = SparsityProfile((1.0, 2.0, 3.0), (9.0, 8.0, 7.0), 0.95)
    r_below = partition_boundary(below, 3)
    r_above = partition_boundary(above, 3)

    report(
        10,
        f"upper limit (mu=1/3, L=1) = {limit} (expected 1); boundary sentinels "
        f"{r_below} / {r_above} (expected 0 / inf)",
        limit == 1 and r_below == 0.0 and np.isinf(r_above),
    )
