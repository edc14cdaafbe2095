"""The benchmark harness: workloads, load generation, tracing, checks."""
