"""Pytest configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints the same rows/series the paper reports.  By default the
problem sizes are reduced so the whole harness completes on a laptop in
minutes; set ``REPRO_FULL=1`` to run closer to paper scale (the simulated
performance figures run at full paper scale either way, since the machine
simulator is cheap -- only the numerical accuracy study is size-limited).
"""
