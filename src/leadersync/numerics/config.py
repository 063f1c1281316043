"""Numerical tolerances and iteration budgets.

Fixed module-level values: nothing in the package or its tests
changes them, and the test suite pins them.
"""

# symmetric eigenvalues
SYM_INPUT_TOL = 1e-12       # relative asymmetry tolerated on input

# singular values / rank
RANK_REL_TOL = 1e-9         # sigma > tol * sigma_max counts toward rank

# matrix exponential (scaling and squaring, order-7 Pade core)
EXPM_SCALED_NORM = 0.5      # scale so ||M|| / 2^s <= this

# Lyapunov / Riccati
LYAP_RESIDUAL_TOL = 1e-10   # times (1 + ||Q||_F)
CARE_RESIDUAL_TOL = 1e-9    # times (1 + ||P||_F^2)
CARE_SYM_TOL = 1e-10        # absolute asymmetry allowed in P
SIGN_MAX_ITER = 100
SIGN_CONV_TOL = 1e-12

# grounded Laplacian M-matrix test
M_MATRIX_TOL = 1e-12        # inverse entries may dip this far below zero

# Lyapunov trace monitoring
INTERVAL_SLACK = 1e-9       # V(t) <= V(t_s) * (1 + slack) inside an interval
RATIO_REL_SLACK = 1e-12     # V(t_{s+1})/V(t_s) <= rho * (1 + slack)

# time grid
GRID_DIV_TOL = 1e-12        # relative error allowed when snapping to the grid

# simulation memory: bytes one simulate call may allocate for its
# per-mode transition tables (modes x (longest gap in steps + 1) x d^2
# doubles, d = followers x states) plus its output arrays, and bytes
# gen_schedule may hold for its instants; checked before anything is
# allocated
SIM_MEMORY_BUDGET = 256 * 2**20

# stabilizability test
EIG_REAL_GUARD = 1e-12      # eigenvalues with Re >= -guard are treated as unstable
