"""Simulation and analysis toolkit for cyclic sensing networks with
order switching: exact precision bounds for sequential, coherently switched
and classically switched sensor queries, a grid-level simulation of the
weak-value-amplified optical readout, and the drive-voltage-to-scaling-law
analysis chain of the tabletop demonstration."""

from .errors import (ConfigError, ConvergenceError, CycleSenseError,
                     DomainError, EstimabilityError, FitError, GridError,
                     GridOverflowError, NormalizationError, PostSelectionError,
                     RegimeError)
from .grid import (Grid, Moments, ProbeSpec, WaveFunction, diffracted_radius,
                   fidelity, make_gaussian, moments, overlap)
from .network import (CompositeEvolution, KickVector, NetworkGeometry,
                      apply_kick, apply_parity, apply_propagation, apply_shift,
                      composite_apply, g_params, switched_joint_state,
                      switched_state_family, traverse_sequence)
from .fisher import (GeneratorMoments, JointState, Qfim2, QcrbReport,
                     SwitchMode, probe_alone_qfi_at_origin,
                     probe_alone_qfim_at_origin, qcrb_global,
                     qfim_classical_switch, qfim_numerical,
                     qfim_quantum_switch, qfim_sequential)
from .wva import (PolarizationState, PostSelection, ReadoutModel,
                  euler_plate_angles, first_order_momentum_shift,
                  half_wave_plate, max_difference_up_to_phase,
                  min_detectable_tilt, momentum_readout, qpd_signal,
                  quarter_wave_plate, rotation_y, rotation_z, sandwich_jones,
                  waveplate_compensation, weak_value, wva_final_probe)
from .pipeline import (NoiseModel, QcrbRow, ScalingFit, SensorDriveModel,
                       SnrLineFit, SweepResult,
                       TABLETOP_PRECISION_TABLE, calibrate_noise_floor,
                       end_to_end_sweep, fit_scaling_law, fit_snr_vs_voltage,
                       qcrb_comparison, snr_model, voltage_to_beam_tilt)
from .config import RunConfig

__version__ = "1.0.0"
