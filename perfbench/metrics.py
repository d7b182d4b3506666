"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; run.py refuses to run when the two
disagree, so a metric cannot be renamed in one place only.
"""

from __future__ import annotations

from tracing import span_names

#: (name, unit, better); end-to-end metrics come from untraced runs.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-command wall times, reported on the workload that runs the command.
COMMAND_METRICS = ("oracle_verify", "wva_sim_n50", "wva_sim_n200", "qcrb_sweep",
                   "reproduce_synthetic")

PER_LAYER = tuple(
    (f"{span}.{field}", unit, "lower")
    for span in span_names()
    for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
) + (
    ("grid.moments.in_guard_share", "share", "lower"),
    ("grid.fft.calls", "count", "lower"),
    ("grid.fft.forward_calls", "count", "lower"),
    ("grid.fft.inverse_calls", "count", "lower"),
    ("grid.fft.points", "count", "lower"),
    ("grid.fftshift.calls", "count", "lower"),
    ("grid.require_normalized.calls", "count", "lower"),
    ("network.sensor_steps", "count", "higher"),
    ("network.s_per_sensor_step", "s", "lower"),
    ("fisher.builder_calls", "count", "lower"),
    ("fisher.branch_use_ratio", "share", "higher"),
    ("pipeline.snr_samples", "count", "higher"),
    ("pipeline.s_per_snr_sample", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.output_digest_changes", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
) + tuple((f"cmd.{c}_s", "s", "lower") for c in COMMAND_METRICS) + (
    ("sensor_steps_per_s", "1/s", "higher"),
    ("oracle_margin_max", "share", "lower"),
    ("failed_share", "share", "lower"),
)
