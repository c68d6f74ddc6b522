"""Shared numerical configuration for the pipeline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by integration, factorization and meshing.

    fourier_degree   degree N: the Toeplitz section has 2N+2 block rows
                     (within the lambda grid; doubling it moves F ~1e-12),
                     and plus_loop_tail measures B over degrees N+1..2N+1
    lambda_samples   number m of unit-circle samples; must be >= 2N+2, and
                     the factorization rejects a LambdaGrid of another size
    ode_tol          relative tolerance of the adaptive Runge-Kutta pair,
                     which runs on the monodromy and verification paths
                     and in the ODE oracle for the series frames;
                     build_surface integrates nothing and ignores it
    """

    fourier_degree: int = 32
    lambda_samples: int = 128
    ode_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.fourier_degree < 1:
            raise ValueError("fourier_degree must be positive")
        if self.lambda_samples < 2 * self.fourier_degree + 2:
            raise ValueError(
                f"lambda_samples={self.lambda_samples} too small for "
                f"degree {self.fourier_degree} (need >= {2 * self.fourier_degree + 2})"
            )
        if not 0 < self.ode_tol < float("inf"):    # NaN fails too
            raise ValueError(f"ode_tol must be positive and finite, got {self.ode_tol}")

    @property
    def section_rows(self) -> int:
        return 2 * self.fourier_degree + 2


DEFAULT_CONFIG = PipelineConfig()
