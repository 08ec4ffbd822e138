"""Repository benchmark: default-config detection workloads and their traced per-layer run."""
