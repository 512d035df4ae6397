"""Format rows of a trajectory CSV; run as a script, in a numpy-free interpreter.

write_rows is the package's one CSV formatting loop: Trajectory.save_csv
calls it in-process on its own share of the rows, and starts this file as

    python -I -S _csv_worker.py ROW_TEMPLATE N_COLS N_ROWS CHUNK_ROWS

for each later share, with stdin open on a file (a pipe serves as well)
that holds N_ROWS * N_COLS native float64 values, C order. The rows go to
stdout. The script imports nothing but sys, so the interpreter starts in
milliseconds.
"""

import sys


def write_rows(out, values, row, n_cols, chunk) -> None:
    """Write the flat float64 sequence `values`, n_cols to a row, to the binary file `out`.

    Each row is formatted with the %-template `row`, `chunk` rows per
    %-operation.
    """
    step = n_cols * chunk
    for i in range(0, len(values), step):
        block = values[i:i + step]
        out.write(((row * (len(block) // n_cols)) % tuple(block.tolist())).encode())


def main() -> int:
    row, n_cols, n_rows, chunk = sys.argv[1], *map(int, sys.argv[2:5])
    raw = sys.stdin.buffer.read(8 * n_cols * n_rows)
    if len(raw) != 8 * n_cols * n_rows:
        return 1  # truncated input: the parent sees a failed worker
    write_rows(sys.stdout.buffer, memoryview(raw).cast("d"), row, n_cols, chunk)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
