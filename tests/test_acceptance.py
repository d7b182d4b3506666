"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 is checked at N = 200 with the tabletop probe against the
exact finite-N switched bound, as a fraction of its N -> infinity limit
k^2/(zbar^2 VarP).  That probe's diffraction length k w0^2 = 32 m exceeds the
40 m network span at N = 200, so the bound still sits 39.7% below the limit
there; it first comes within 1% of it at N = 1706.  The companion test
directly below checks the limit itself to 1% at N = 3000.
"""

import math

import numpy as np

from cyclesense import (GeneratorMoments, Grid, KickVector, NetworkGeometry,
                        PostSelection, ProbeSpec, RunConfig, SwitchMode,
                        TABLETOP_PRECISION_TABLE, apply_parity, fidelity,
                        fit_scaling_law, g_params, make_gaussian, moments,
                        min_detectable_tilt, probe_alone_qfi_at_origin,
                        qcrb_global, qfim_classical_switch, qfim_numerical,
                        qfim_quantum_switch, qfim_sequential, composite_apply,
                        switched_state_family, traverse_sequence,
                        wva_final_probe)
from cyclesense.cli import main
from cyclesense.oracle import _fisher_instances, _random_instance

LAB_WAVELENGTH = 780e-9
LAB_WAIST = 2e-3
LAB_WAVE_NUMBER = 2.0 * math.pi / LAB_WAVELENGTH

LAB_PROBE = ProbeSpec(LAB_WAIST, LAB_WAVE_NUMBER)
Z_BAR = 0.2


def report(ok: bool, line: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    return ok


def lab_gm(n):
    return GeneratorMoments.from_probe_spec(LAB_PROBE, Z_BAR, n)


def switched_limit_fraction(n):
    """Exact switched bound * N^4 over its N -> infinity limit, Gaussian probe.

    The bound is 1/(N^2 (N+1)^2 zbar^2 Var H0) with H0 = P/k + 2X/((N+1)zbar),
    VarX = w0^2/4 and VarP = 1/w0^2, so against k^2/(zbar^2 VarP) it is
    (N/(N+1))^2 / (1 + (k w0^2/((N+1) zbar))^2).
    """
    diffraction = LAB_WAVE_NUMBER * LAB_WAIST**2 / ((n + 1) * Z_BAR)
    return (n / (n + 1)) ** 2 / (1.0 + diffraction**2)


def test_criterion_1_super_heisenberg_scaling_at_n200():
    """Scaled switched-strategy bounds equal the exact finite-N form at N=200."""
    limit = LAB_WAVE_NUMBER**2 / (Z_BAR**2 * LAB_PROBE.delta_p**2)
    predicted = switched_limit_fraction(200)
    ratios = {}
    for label, qfim in (("quantum_switch", qfim_quantum_switch),
                        ("classical_switch", qfim_classical_switch)):
        ratios[label] = qcrb_global(qfim(lab_gm(200)), 200, Z_BAR) * 200**4 / limit
    errors = {label: abs(r - predicted) / predicted for label, r in ratios.items()}
    ok = all(e <= 1e-12 for e in errors.values())
    report(ok, "criterion 1: switched bounds * N^4 match the finite-N form at "
               f"N=200 (deviation from k^2/(zbar^2 VarP): measured "
               f"{1 - ratios['quantum_switch']:.4f}, "
               f"{1 - ratios['classical_switch']:.4f}; predicted "
               f"{1 - predicted:.4f}; worst rel error "
               f"{max(errors.values()):.1e})")
    assert ok, (f"scaled bounds over the limit are {ratios} at N=200, expected "
                f"{predicted:.12f} = (N/(N+1))^2 / (1 + (k w0^2/((N+1) zbar))^2); "
                f"the limit itself is met to 1% from N = 1706 (k w0^2 = "
                f"{LAB_WAVE_NUMBER * LAB_WAIST**2:.1f} m)")


def test_criterion_1_companion_asymptote_at_large_n():
    """The same limit holds to 1% once N clears the probe's diffraction scale."""
    limit = LAB_WAVE_NUMBER**2 / (Z_BAR**2 * LAB_PROBE.delta_p**2)
    devs = []
    for qfim in (qfim_quantum_switch, qfim_classical_switch):
        scaled = qcrb_global(qfim(lab_gm(3000)), 3000, Z_BAR) * 3000**4
        devs.append(abs(scaled - limit) / limit)
    ok = all(d <= 0.01 for d in devs)
    assert report(ok, "criterion 1 companion: same limit within 1% at N=3000 "
                      f"(deviations {devs[0]:.4f}, {devs[1]:.4f})")


def test_criterion_2_sequential_heisenberg_scaling():
    """Fixed-order bound times N^2 constant to 1e-12 across N = 1..100."""
    values = [qcrb_global(qfim_sequential(lab_gm(n)), n, Z_BAR) * n**2
              for n in range(1, 101)]
    spread = (max(values) - min(values)) / values[0]
    assert report(spread <= 1e-12,
                  f"criterion 2: sequential bound * N^2 constant (spread {spread:.2e})")


def test_criterion_3_evolution_oracle_equivalence():
    """Composite evolution vs raw operator product: |1 - F| <= 1e-10."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        geom, kicks, psi = _random_instance(rng, 1 << 14)
        comp = g_params(geom, kicks)
        for brute, reduced in zip(traverse_sequence(psi, geom, kicks),
                                  composite_apply(psi, geom, comp)):
            worst = max(worst, abs(1.0 - fidelity(brute, reduced)))
    assert report(worst <= 1e-10,
                  f"criterion 3: traversal vs composite over 20 random instances "
                  f"(worst |1 - F| {worst:.2e})")


def test_criterion_4_fisher_oracle_equivalence():
    """Closed-form information matrices vs finite differences, 10 instances each."""
    closed = {SwitchMode.SEQUENTIAL: qfim_sequential,
              SwitchMode.QUANTUM_SWITCH: qfim_quantum_switch,
              SwitchMode.CLASSICAL_SWITCH: qfim_classical_switch}
    worst = {}
    for mode, form in closed.items():
        w = 0.0
        for i in range(10):
            rng = np.random.default_rng(7000 + i)
            geom, psi, g1, g2 = _fisher_instances(rng, 1 << 13)
            gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                               geom.z_bar, geom.n_sensors, g1, g2)
            numeric = qfim_numerical(switched_state_family(psi, geom, mode),
                                     (g1, g2), step=1e-4)
            analytic = form(gm)
            w = max(w, float(np.linalg.norm(numeric - analytic)
                             / np.linalg.norm(analytic)))
        worst[mode.value] = w
    ok = all(w < 1e-3 for w in worst.values())
    assert report(ok, "criterion 4: information matrices vs finite differences "
                      + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_5_probe_alone_identity():
    """Traced-out-probe bound equals classical-switch bound to 1e-12, N = 1..50."""
    worst = 0.0
    for n in range(1, 51):
        gm = lab_gm(n)
        alone = probe_alone_qfi_at_origin(gm)
        csw = qcrb_global(qfim_classical_switch(gm), n, Z_BAR)
        worst = max(worst, abs(alone - csw) / csw)
    assert report(worst <= 1e-12,
                  f"criterion 5: probe-alone bound equals classical switch "
                  f"(worst rel diff {worst:.2e})")


def test_criterion_6_wva_readout():
    """Exact-grid post-selected momentum vs the first-order form within 1%."""
    ps = PostSelection.from_weak_value_magnitude(7.0)
    worst = 0.0
    for n in (1, 3, 5):
        geom = NetworkGeometry.uniform(n, Z_BAR, lead_in=0.325,
                                       wave_number=LAB_WAVE_NUMBER)
        psi = make_gaussian(LAB_PROBE, Grid.for_probe(LAB_PROBE, geom.z_total,
                                                      1 << 14))
        tbar = 0.46 / (n**2 + 4.25 * n)
        chi, _ = wva_final_probe(psi, geom, KickVector.uniform(n, tbar), ps)
        k = LAB_WAVE_NUMBER
        bracket = (Z_BAR / (2 * k)) * n**2 + (Z_BAR / (2 * k) + 0.325 / k) * n
        predicted = 2.0 / math.tan(ps.epsilon) * LAB_PROBE.delta_p**2 * bracket * tbar
        worst = max(worst, abs(moments(chi).mean_p - predicted) / abs(predicted))
    assert report(worst <= 0.01,
                  f"criterion 6: amplified momentum readout matches closed form "
                  f"(worst rel error {worst:.2e}, N in {{1,3,5}}, |A_w|=7)")


def test_criterion_7_threshold_self_consistency():
    """Signal equals spread at the closed-form threshold tilt, in linear response.

    Driving at the threshold itself saturates the amplifier, so the identity
    is evaluated on the grid through the response slope at a small tilt
    extrapolated to the threshold (how the measurement actually infers it).
    The threshold keeps the small-eps gain 1/eps while the exact first-order
    gain is cot eps, so eps cot eps is divided out; the residual then scales
    as the probe tilt squared (about 5e-8 at theta_min / 1e5).
    """
    ps = PostSelection.from_weak_value_magnitude(7.0)
    gain = ps.epsilon / math.tan(ps.epsilon)
    worst = 0.0
    for n in (1, 3, 5):
        geom = NetworkGeometry.uniform(n, Z_BAR, lead_in=0.325,
                                       wave_number=LAB_WAVE_NUMBER)
        psi = make_gaussian(LAB_PROBE, Grid.for_probe(LAB_PROBE, geom.z_total,
                                                      1 << 14))
        theta_min, _ = min_detectable_tilt(geom, LAB_PROBE.delta_p, ps)
        probe_tilt = theta_min / 1e5
        chi, _ = wva_final_probe(psi, geom, KickVector.uniform(n, probe_tilt), ps)
        m = moments(chi)
        ratio = (m.mean_p / probe_tilt) * theta_min / math.sqrt(m.var_p)
        worst = max(worst, abs(ratio / gain - 1.0))
    assert report(worst <= 1e-6,
                  f"criterion 7: threshold tilt puts signal/spread at 1 "
                  f"(worst deviation {worst:.2e})")


def test_criterion_8_experiment_reproduction():
    """Tabletop scaling fit hits the reference numbers; synthetic loop is exact."""
    fit = fit_scaling_law([(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE])
    ok_a = abs(fit.a - 4.77e-9) / 4.77e-9 <= 0.03
    ok_b = abs(fit.b - 4.25) / 4.25 <= 0.05
    ok_r = fit.r_squared >= 0.985

    from cyclesense import (NoiseModel, ReadoutModel, SensorDriveModel,
                            calibrate_noise_floor, end_to_end_sweep)
    readout = ReadoutModel(0.25, 1e4, 0.2e-3)
    drive = SensorDriveModel()
    ps = PostSelection.from_weak_value_magnitude(7.0)

    def geom_for(n):
        return NetworkGeometry.uniform(n, Z_BAR, lead_in=0.325,
                                       wave_number=LAB_WAVE_NUMBER)

    floor = calibrate_noise_floor(geom_for, LAB_PROBE.waist_radius, ps, readout,
                                  drive)
    synth = end_to_end_sweep(list(range(1, 10)), [i * 1e-3 for i in range(1, 11)],
                             1, LAB_PROBE, ps, readout, drive,
                             NoiseModel(floor, 0.0), Z_BAR, lead_in=0.325)
    ok_loop = abs(synth.scaling.r_squared - 1.0) <= 1e-9
    ok = ok_a and ok_b and ok_r and ok_loop
    assert report(ok, f"criterion 8: tabletop fit a={fit.a*1e9:.3f} nrad "
                      f"b={fit.b:.3f} R2={fit.r_squared:.4f}; synthetic loop "
                      f"R2={synth.scaling.r_squared:.12f}")


def test_criterion_9_waveplate_compensation():
    """Three-plate sandwich equals the phase rotation for 100 random offsets."""
    from cyclesense import (max_difference_up_to_phase, rotation_z,
                            sandwich_jones, waveplate_compensation)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        dt = float(rng.uniform(-math.pi, math.pi))
        got = sandwich_jones(waveplate_compensation(dt))
        worst = max(worst, max_difference_up_to_phase(got, rotation_z(-dt / 2)))
    assert report(worst <= 1e-12,
                  f"criterion 9: waveplate compensation (worst deviation {worst:.2e})")


class TestCriterion10Properties:
    """Bundled property suites; each prints its own line."""

    def test_unitarity_and_normalization(self):
        worst = 0.0
        for seed in range(8):
            rng = np.random.default_rng(600 + seed)
            geom, kicks, psi = _random_instance(rng, 1 << 13)
            for parity_reverse in (False, True):
                for out in traverse_sequence(psi, geom, kicks, parity_reverse):
                    worst = max(worst, abs(out.norm() - 1.0))
        assert report(worst <= 1e-10,
                      f"criterion 10a: traversals preserve the norm "
                      f"(worst drift {worst:.2e})")

    def test_parity_involution(self, unit_grid):
        psi = make_gaussian(ProbeSpec(1.3, 1.0, center_x=0.7, center_p=-0.4),
                            unit_grid)
        twice = apply_parity(apply_parity(psi))
        diff = float(np.max(np.abs(twice.amplitudes - psi.amplitudes)))
        assert report(diff == 0.0,
                      f"criterion 10b: parity is an exact involution (diff {diff:.1e})")

    def test_qfim_positive_semidefinite(self):
        smallest = math.inf
        for i in range(8):
            rng = np.random.default_rng(800 + i)
            geom, psi, g1, g2 = _fisher_instances(rng, 1 << 12)
            gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                               geom.z_bar, geom.n_sensors, g1, g2)
            for form in (qfim_sequential, qfim_quantum_switch,
                         qfim_classical_switch):
                q = form(gm)
                floor = -1e-10 * (abs(q[0, 0]) + abs(q[1, 1]))
                least = np.linalg.eigvalsh(q).min()
                smallest = min(smallest, float(least))
                assert least >= floor
        assert report(True, f"criterion 10c: information matrices PSD "
                            f"(smallest eigenvalue {smallest:.2e})")

    def test_qfim_convexity_on_estimable_subspace(self):
        from cyclesense.fisher import _var_h0
        worst = math.inf
        for i in range(8):
            rng = np.random.default_rng(900 + i)
            geom, psi, _, _ = _fisher_instances(rng, 1 << 12)
            gm = GeneratorMoments.from_moments(moments(psi), geom.wave_number,
                                               geom.z_bar, geom.n_sensors)
            diff = qfim_classical_switch(gm) \
                - _var_h0(gm) * np.ones((2, 2))
            v = np.array([1.0, 1.0]) / math.sqrt(2)
            worst = min(worst, float(v @ diff @ v))
            assert v @ diff @ v >= -1e-12
            assert np.linalg.eigvalsh(diff).min() >= -1e-10 * np.trace(diff + 1e-30)
        assert report(True, f"criterion 10d: mixture information never exceeds the "
                            f"labeled switch (min projected gap {worst:.2e})")

    def test_snr_monotonicity(self):
        from cyclesense import (NoiseModel, PostSelection, ReadoutModel,
                                snr_model)
        ps = PostSelection.from_weak_value_magnitude(7.0)
        readout = ReadoutModel(0.25, 1e4, 0.2e-3)
        noise = NoiseModel(1e-3)
        snrs = {}
        for n in range(1, 10):
            geom = NetworkGeometry.uniform(n, Z_BAR, lead_in=0.325,
                                           wave_number=LAB_WAVE_NUMBER)
            for v in (1e-3, 2e-3, 5e-3):
                snrs[(n, v)] = snr_model(v * 2.2e-6, geom,
                                         LAB_PROBE.waist_radius, ps, readout, noise)
        ok = all(snrs[(n + 1, v)] > snrs[(n, v)]
                 for n in range(1, 9) for v in (1e-3, 2e-3, 5e-3))
        ok = ok and all(snrs[(n, 2e-3)] > snrs[(n, 1e-3)]
                        and snrs[(n, 5e-3)] > snrs[(n, 2e-3)]
                        for n in range(1, 10))
        assert report(ok, "criterion 10e: SNR strictly increases with N and voltage")

    def test_cli_determinism(self, tmp_path):
        cfg = RunConfig(n_values=[1, 2, 3], voltages=[1e-3, 2e-3, 4e-3],
                        replicates=2, jitter=0.05)
        cfg_path = tmp_path / "config.yaml"
        cfg.echo_yaml(cfg_path)
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "reproduce-experiment"]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        ok = blobs[0] == blobs[1]
        assert report(ok, "criterion 10f: repeated CLI runs are byte-identical")
