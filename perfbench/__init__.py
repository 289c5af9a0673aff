"""Benchmark for combspec: workloads, span tracing and seeded inputs."""
