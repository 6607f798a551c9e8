"""The repo benchmark: six workloads, host times as the piecewise median of
reference-kernel seconds, per-layer breakdown by module.  See README.md in
this directory."""
