"""Independent Eq. 2 oracle for the engine tests (not collected).

Grid scan + SciPy's bounded Brent refinement + boundary snapping, the
scalar algorithm the package used before it had one vectorised kernel.
It shares no code with :func:`repro.core.optimizer.argmax_utility`, so
agreement between the two is evidence rather than tautology.
"""

import numpy as np
from scipy import optimize as sciopt

from repro.core.optimizer import OptimalDecision


def scalar_reference(scenario, engine):
    """The grid + ``minimize_scalar`` answer for one scenario."""
    model = scenario.utility_model()
    d_min = scenario.min_distance_m
    d0 = scenario.contact_distance_m
    v = scenario.cruise_speed_mps
    bits = scenario.data_bits
    tol = engine.refine_tolerance_m

    def u(d):
        return model.utility(float(d), d0, v, bits)

    span = d0 - d_min
    if span <= tol:
        best = d_min
    else:
        n = max(3, int(span / engine.grid_step_m) + 1)
        grid = np.linspace(d_min, d0, n)
        values = np.array([u(d) for d in grid])
        k = int(np.argmax(values))
        lo, hi = grid[max(0, k - 1)], grid[min(n - 1, k + 1)]
        best = float(grid[k])
        if hi - lo > tol:
            res = sciopt.minimize_scalar(
                lambda d: -u(d),
                bounds=(float(lo), float(hi)),
                method="bounded",
                options={"xatol": tol},
            )
            if u(res.x) >= values[k]:
                best = float(res.x)
        u_best = u(best)
        for boundary in (d_min, d0):
            if u(boundary) >= u_best * (1.0 - 1e-4):
                best, u_best = boundary, u(boundary)

    detail = model.breakdown(best, d0, v, bits)
    return OptimalDecision(
        distance_m=best,
        utility=detail.utility,
        cdelay_s=detail.cdelay_s,
        shipping_s=detail.shipping_s,
        transmission_s=detail.transmission_s,
        discount=detail.discount,
        contact_distance_m=d0,
        speed_mps=v,
        data_bits=bits,
        tolerance_m=max(tol, 1e-6),
    )
