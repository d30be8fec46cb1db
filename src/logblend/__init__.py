"""Log heterogeneity measurement, synthesis, and parser benchmarking."""

__version__ = "0.1.0"
