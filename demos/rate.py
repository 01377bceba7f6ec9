"""Convergence rate of the network average on a Gaussian target.

Runs an ensemble of independent networks on a standard-normal target,
fits Gaussian moments to the ensemble of averaged states at geometric
checkpoints and prints the transport distance to the target plus the
fitted log-log decay slope.  The fitted moments of a finite ensemble
carry an O(1/sqrt(runs)) floor, so the fit window stops while the signal
still dominates; the acceptance suite repeats this at eight times the
ensemble size.
"""

import numpy as np

from declangevin import (GaussianDist, GaussianPotential, StepSchedule,
                         empirical_gaussian, generate_graph_sequence,
                         rate_fit, run_gaussian_ensemble, w2_gaussian_bures)


def main():
    m, d, iters, runs = 4, 2, 2000, 2048
    pot = GaussianPotential(np.zeros(d), np.eye(d), m)
    alpha0 = min(1.0 / (2.0 * pot.props.lipschitz),
                 pot.props.mu / (4.0 * pot.props.lipschitz ** 2))
    seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
    sched = StepSchedule("harmonic", alpha0=alpha0)
    cps = np.unique(np.geomspace(1, iters, 61).astype(int))
    target = GaussianDist(np.zeros(d), np.eye(d))

    print(f"{m} agents, {runs} runs, harmonic step alpha0={alpha0}")
    snaps = run_gaussian_ensemble(seq, sched, np.zeros(d), np.eye(d), m,
                                  iters, runs, 11, cps)
    w2 = w2_gaussian_bures(empirical_gaussian(snaps), target)

    print(f"\n{'t':>5} {'W2 to target':>13}")
    for k in sorted(set(range(0, len(cps), 10)) | {len(cps) - 1}):
        print(f"{cps[k]:>5} {w2[k]:>13.4f}")

    floor = np.sqrt((2.0 + 6.0) / runs)
    window = (cps >= 10) & (cps <= 300)
    slope = rate_fit(w2[window], cps[window])
    print(f"\nestimation floor is near {floor:.3f}; over t in [10, 300] the "
          f"fitted slope is {slope:.3f}")


if __name__ == "__main__":
    main()
