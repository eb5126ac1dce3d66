"""Evaluation workloads: WHISPER, SPEC-style, and allocation traces."""
