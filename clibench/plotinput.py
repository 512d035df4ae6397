"""Write the seeded ``plot`` input: a trajectory CSV in the simulator's format.

    python3 clibench/plotinput.py OUT.csv SEED

Runs as its own process so that the benchmark's parent process never loads
numpy: a child's peak RSS, as ``wait4`` reports it, starts from its parent's.
"""

import sys

import numpy as np

from workloads import P1_CONTROL_PERIOD, P1_ROWS, TRAJECTORY_HEADER


def write_plot_input(path: str, seed: int) -> None:
    """Write a seeded trajectory CSV with P1's row count.

    The rows are synthetic (a decaying spiral with oscillating controls), so
    the bytes depend only on the seed, never on the simulator under test.
    """
    rng = np.random.default_rng(seed)
    n = P1_ROWS
    t = np.arange(n) * P1_CONTROL_PERIOD
    tau = rng.uniform(25.0, 40.0)
    omega = 2.0 * np.pi
    decay = np.exp(-t / tau)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    x1 = -0.5 * decay * np.cos(0.05 * t + phase[0]) + 1e-3 * rng.standard_normal(n)
    x2 = -0.5 * decay * np.sin(0.05 * t + phase[1]) + 1e-3 * rng.standard_normal(n)
    x3 = 0.3 * decay * np.sin(omega * t + phase[2])
    a12 = 0.05 * decay * (1.0 + 0.1 * rng.standard_normal(n))
    osc = np.sqrt(omega * np.abs(a12))
    u1 = np.clip(0.5 * osc * np.cos(omega * t), -0.22, 0.22)
    u2 = np.clip(8.0 * osc * np.sin(omega * t), -2.84, 2.84)
    a1 = -0.05 * (x1 * np.cos(x3) + x2 * np.sin(x3))
    a2 = -0.05 * x3
    v = x1 ** 2 + x2 ** 2 + x3 ** 2
    sat = ((np.abs(u1) >= 0.22) | (np.abs(u2) >= 2.84)).astype(float)
    data = np.column_stack([t, x1, x2, x3, u1, u2, a1, a2, a12, v, sat])
    row = ",".join(["%.9g"] * data.shape[1]) + "\n"
    chunk = 20_000
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        for i in range(0, n, chunk):
            block = data[i:i + chunk]
            f.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


if __name__ == "__main__":
    write_plot_input(sys.argv[1], int(sys.argv[2]))
