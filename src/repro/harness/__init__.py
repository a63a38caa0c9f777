"""Experiment harness: one module per paper table/figure, plus the bench suites."""
