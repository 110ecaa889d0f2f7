#!/usr/bin/env python3
"""Mesh-refinement study of the Dirichlet-to-Neumann solve.

Prints the relative L2 error of the recovered Neumann data for degree-1 and
degree-2 harmonic Dirichlet traces across icosphere levels, with observed
orders in the node spacing.  For each level it also prints the time to
assemble (and factor) the system, to build its g02 operator, and to solve
for both traces with that operator cached, and the process peak RSS so far.

    PYTHONPATH=src python3 scripts/dtn_convergence_study.py
"""

import resource
import time

import numpy as np

from potdeg.bie import assemble_neumann_system, solve_neumann_data
from potdeg.geometry import make_unit_sphere


def main():
    rows = []
    # level 1 is below the resolution the normal-derivative stencil needs
    for level in (2, 3, 4):
        mesh = make_unit_sphere(level)
        t0 = time.perf_counter()
        sys_ = assemble_neumann_system(mesh)
        t1 = time.perf_counter()
        sys_.g02
        t2 = time.perf_counter()
        z = mesh.nodes[:, 2]
        q = mesh.nodes[:, 2] ** 2 - (mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2) / 2
        e1 = np.linalg.norm(solve_neumann_data(sys_, z) - z) / np.linalg.norm(z)
        e2 = np.linalg.norm(solve_neumann_data(sys_, q) - 2 * q) / np.linalg.norm(2 * q)
        t3 = time.perf_counter()
        h = float(np.mean(mesh.node_spacing))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows.append((level, mesh.n_nodes, h, e1, e2, t1 - t0, t2 - t1, t3 - t2, peak_mb))

    print(f"{'level':>5} {'nodes':>6} {'h':>8} {'err deg1':>10} {'err deg2':>10} "
          f"{'ord1':>6} {'ord2':>6} {'asm s':>6} {'g02 s':>6} {'solve s':>7} {'peak MB':>8}")
    for i, (level, n, h, e1, e2, t_asm, t_g02, t_solve, peak_mb) in enumerate(rows):
        if i == 0:
            o1 = o2 = float("nan")
        else:
            hp, ep1, ep2 = rows[i - 1][2], rows[i - 1][3], rows[i - 1][4]
            o1 = np.log(ep1 / e1) / np.log(hp / h)
            o2 = np.log(ep2 / e2) / np.log(hp / h)
        print(f"{level:>5} {n:>6} {h:>8.4f} {e1:>10.2e} {e2:>10.2e} {o1:>6.2f} {o2:>6.2f} "
              f"{t_asm:>6.2f} {t_g02:>6.2f} {t_solve:>7.3f} {peak_mb:>8.0f}")


if __name__ == "__main__":
    main()
