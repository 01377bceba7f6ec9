"""Push-sum averaging over a directed, time-varying network.

Runs the bare protocol with no gradient and no noise, so the only dynamics
is mixing.  On a directed network the raw states converge to weighted mass
shares, not the average; the ratio of value mass to weight mass is the
quantity that reaches consensus.  The script prints both so the difference
is visible, along with the conserved total weight.
"""

import numpy as np

from declangevin import (NetworkState, StepSchedule, ZeroPotential,
                         generate_graph_sequence, init_network, langevin_step)


def main():
    m, d, iters = 8, 2, 120
    seq = generate_graph_sequence("seeded-random", m, 2, seed=3)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((m, d))
    ns = init_network(m, d)
    ns = NetworkState(x=x0.copy(), y=ns.y, w=ns.w, z=ns.z, t=0)
    target = x0.mean(axis=0)

    print(f"{m} agents, windowed random digraphs, target average {target}")
    print(f"{'t':>4} {'max |z - avg|':>14} {'max |x - avg|':>14} "
          f"{'total weight':>13}")
    # a step with no gradient and no noise is a bare push-sum round: x = w
    sched, flat = StepSchedule("harmonic", 1.0), ZeroPotential(d)
    for t in range(iters):
        ns = langevin_step(ns, seq.mixing_at(t), sched, flat, None)
        if t % 20 == 19 or t == 0:
            z_gap = np.linalg.norm(ns.z - ns.x.mean(axis=0), axis=1).max()
            x_gap = np.linalg.norm(ns.x - target, axis=1).max()
            print(f"{t + 1:>4} {z_gap:>14.2e} {x_gap:>14.2e} "
                  f"{ns.y.sum():>13.6f}")

    print("\nthe ratios agree on the average while the raw states settle "
          "on mass shares;")
    print("the weight column never drifts from the number of agents")


if __name__ == "__main__":
    main()
