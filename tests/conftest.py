"""Apply WORKBENCH_THREADS to the BLAS thread pools before any test module
imports numpy, as the CLI does for its own process."""

from impedbench.cli import _configure_threads

_configure_threads()
