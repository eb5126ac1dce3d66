"""Evaluation: configurations, runner, and per-artifact experiments."""
