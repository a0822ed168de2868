"""The perf ledger: one harness, six workloads (see README.md)."""
