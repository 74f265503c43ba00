"""The host-speed probe shared with the repository benchmark.

Only :func:`repro.bench.timer.calibrate` lives here: ``perfbench/`` scales
its ``sim_kips`` by the probe, so the kernel stays fixed.
"""
