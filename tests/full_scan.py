"""Full-scan reference of the downhill walk in ``extract_transition``.

``floquet.extract_transition`` steps only the grid points of its walk
from the pair's splitting to a local gap minimum. The reference here
steps every grid point, takes the argmin, and refines it the same way,
through ``floquet._pair_gap`` looked up at call time, so a test that
replaces that function replaces it for both.
"""

import numpy as np

from fluxgate import floquet
from fluxgate.evolve import DEFAULT_DT, dressed_frame
from fluxgate.floquet import REFINE_POINTS, TransitionResult
from fluxgate.system import assemble_operators, label_parity


def full_scan_transition(params, flux_s, drive_amp, pair, omega_window, resolution=21,
                         dt=DEFAULT_DT):
    """``extract_transition`` with every grid point stepped: its argmin
    refined on ``REFINE_POINTS`` points and a parabola through the
    squared gaps, the whole grid and the refine points reported."""
    sector = label_parity(pair[0])
    frame = dressed_frame(params, flux_s)
    rows = assemble_operators(params).sectors[sector]
    pair_vecs = frame.states[np.ix_(rows, [frame.index_of(lab) for lab in pair])]
    gap_at = {}

    def gaps(fs):
        for f in fs:
            if f not in gap_at:
                gap_at[f] = floquet._pair_gap(params, flux_s, drive_amp, f, pair_vecs, dt, sector)
        return np.array([gap_at[f] for f in fs])

    freqs = np.linspace(*omega_window, resolution)
    g_scan = gaps(freqs)
    i_min = int(np.argmin(g_scan))
    if i_min == 0 or i_min == resolution - 1:
        return TransitionResult(False, np.nan, np.nan, freqs, g_scan)

    f_ref = np.linspace(freqs[i_min - 1], freqs[i_min + 1], REFINE_POINTS)
    f_ref[[0, REFINE_POINTS // 2, -1]] = freqs[i_min - 1 : i_min + 2]
    g_ref = gaps(f_ref)
    j = min(max(int(np.argmin(g_ref)), 1), REFINE_POINTS - 2)
    x = f_ref[j - 1 : j + 2]
    coef = np.polyfit(x, g_ref[j - 1 : j + 2] ** 2, 2)
    if coef[0] > 0:
        omega_res = float(-coef[1] / (2.0 * coef[0]))
        if not (x[0] <= omega_res <= x[2]):
            omega_res = float(f_ref[j])
        strength = float(np.sqrt(max(float(np.polyval(coef, omega_res)), 0.0)))
    else:
        omega_res = float(f_ref[j])
        strength = float(g_ref[j])
    scanned = np.array(sorted(gap_at))
    return TransitionResult(True, omega_res, strength, scanned, gaps(scanned))
