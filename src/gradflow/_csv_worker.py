"""Format a share of a trajectory CSV in a separate, numpy-free interpreter.

Trajectory.save_csv starts this file as

    python -I -S _csv_worker.py ROW_TEMPLATE N_COLS N_ROWS CHUNK_ROWS

and writes N_ROWS * N_COLS native float64 values, C order, to its stdin.
The rows go to stdout formatted with the %-template ROW_TEMPLATE, CHUNK_ROWS
rows per %-operation, exactly as the in-process writer does. It imports
nothing but sys, so the interpreter starts in milliseconds.
"""

import sys


def main() -> int:
    row, n_cols, n_rows, chunk = sys.argv[1], *map(int, sys.argv[2:5])
    raw = sys.stdin.buffer.read(8 * n_cols * n_rows)
    if len(raw) != 8 * n_cols * n_rows:
        return 1  # truncated input: the parent sees a failed worker
    values = memoryview(raw).cast("d")
    out = sys.stdout.buffer
    step = n_cols * chunk
    for i in range(0, len(values), step):
        block = values[i:i + step]
        out.write(((row * (len(block) // n_cols)) % tuple(block.tolist())).encode())
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
