"""Transverse spin polarizations during a driven sweep.

The kernel solution gives u_x and u_y in closed form: each harmonic
contributes a shifted-Fresnel response, and the longitudinal drive phase
enters through the rotation sums a_c, a_s.  Useful for spotting when the
spin spends time off the quantization axis, and for timing a flip.

Writes polarizations.csv (tau, ux/uy/uz numeric and kernel columns).
"""

import csv

import numpy as np

from lzdrive import (
    DriveConfig,
    TruncationSpec,
    ac_as,
    bloch_perturbative,
    propagate_bloch,
)

cfg = DriveConfig(delta=0.07, amp_rf=0.05, freq_rf=1.0, amp_mw=0.085, freq_mw=1.0)
trunc = TruncationSpec(40)

tr = propagate_bloch(cfg, sample_stride=0.1)
pert = bloch_perturbative(tr.taus, cfg, trunc)

for i, comp in enumerate(("ux", "uy", "uz")):
    dev = np.max(np.abs(pert[:, i] - tr.data[:, i]))
    print(f"{comp}: kernel vs numeric worst dev {dev:.2e}")

with open("polarizations.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["tau", "ux_num", "uy_num", "uz_num", "ux_k", "uy_k", "uz_k"])
    for k in range(tr.taus.size):
        writer.writerow(list(np.concatenate([[tr.taus[k]], tr.data[k], pert[k]])))
print("trace written to polarizations.csv")

# the rotation sums are cos and sin of the longitudinal phase, so unimodular
a_c, a_s = ac_as(np.array([-5.0, 0.0, 5.0]), DriveConfig(delta=0.07), TruncationSpec(4))
print("single-harmonic check a_c^2 + a_s^2 =", a_c**2 + a_s**2)
