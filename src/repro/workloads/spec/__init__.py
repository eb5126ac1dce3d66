"""SPEC CPU 2017-style workloads: the paper benchmarks' stream generator
and real kernels."""
