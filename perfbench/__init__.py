"""Benchmark for lowk: seeded query workloads, answer checks and a traced run."""
