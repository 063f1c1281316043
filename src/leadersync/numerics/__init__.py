"""Dense numerics: eigensolvers, matrix exponential, Lyapunov and Riccati."""
