"""Physical constants and the one convention constant of the pipeline."""

# CODATA 2022, written out so results do not depend on the scipy release
C_LIGHT = 299792458.0                 # m/s, exact
EPSILON_0 = 8.8541878188e-12          # F/m
HBAR = 1.0545718176461565e-34         # J*s, h / 2 pi with h exact

# Energy-to-amplitude convention constant of the time-domain synthesis
#   E(rho, t) = (FIELD_CALIBRATION / 2 pi) * int_R dw E(rho, w) e^{-i w t}.
# Pinned so that the maximum focal pulse area comes out as
#   eta = 0.64 * A * sqrt(U * Gamma0 / (hbar * omega0 * Gamma))
# for a Gaussian spectrum with Gamma = 10 * omega0:
#   FIELD_CALIBRATION = 4 pi * 0.64 / (sqrt(6 pi) * Jmax * sqrt(10)),
# with Jmax = max_tau |int_R phi(w) e^{-i w tau} dw| = 8.5925821 in
# carrier units at that width.
FIELD_CALIBRATION = 0.06817349918343474
