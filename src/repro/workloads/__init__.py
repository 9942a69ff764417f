"""Built-in workloads used by the paper's evaluation."""
