"""CSV and JSON interchange.

Datasets are CSV with a header row and one row per time step: (t, u, y) for
real-valued outputs, (t, u, z) for quantized ones. Multi-sequence datasets
prepend a seq column. Floats are written with repr precision so files
round-trip losslessly.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

_CSV_BLOCK_ROWS = 4096  # rows formatted per write, to bound the text held at once


def write_csv(path, header, columns):
    """Write named columns (equal-length 1-D arrays) as CSV."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].shape[0]
    if any(c.shape[0] != n for c in columns):
        raise ValueError("all columns must have the same length")
    formatters = [_cell_formatter(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # formatted a block of rows at a time, column by column
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            cells = [f(c[lo : lo + _CSV_BLOCK_ROWS]) for f, c in zip(formatters, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cell_formatter(col):
    """A function from a slice of col to its cells: integers as integers,
    anything else as the repr of a Python float.

    An integer column whose values repeat, spanning at most half as many
    values as it has rows (the time index of several sequences, a sequence
    index, bin indices), looks its cells up in one table of strings.
    """
    if not np.issubdtype(col.dtype, np.integer):
        return lambda part: map(repr, part.astype(float).tolist())
    if col.size:
        lo, hi = int(col.min()), int(col.max())
        if 2 * (hi - lo + 1) <= col.size:
            table = {k: str(k) for k in range(lo, hi + 1)}
            return lambda part: map(table.__getitem__, part.tolist())
    return lambda part: map(str, part.tolist())


def read_csv(path):
    """Read a CSV with a header row into {name: 1-D float array}."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [h.strip() for h in header.split(",")]
        with warnings.catch_warnings():
            # a header-only file (e.g. a zero-iteration trace) is valid
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in names}
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: column count does not match header")
    return {name: data[:, k] for k, name in enumerate(names)}


def write_dataset(path, u, y=None, z=None):
    """Dataset CSV for one sequence (t,u,y | t,u,z) or a batch (seq,t,...)."""
    u = np.asarray(u)
    if u.ndim == 1:
        t = np.arange(u.shape[0])
        if y is not None:
            write_csv(path, ["t", "u", "y"], [t, u, np.asarray(y)])
        else:
            write_csv(path, ["t", "u", "z"], [t, u, np.asarray(z)])
        return
    n_seq, T = u.shape
    seq = np.repeat(np.arange(n_seq), T)
    t = np.tile(np.arange(T), n_seq)
    third = np.asarray(y if y is not None else z).reshape(n_seq * T)
    name = "y" if y is not None else "z"
    write_csv(path, ["seq", "t", "u", name], [seq, t, u.reshape(n_seq * T), third])


def read_dataset(path):
    """Load a dataset CSV into (u, y_or_z, kind) with u shaped (batch, T).

    kind is "y" for real outputs or "z" for quantized bin indices.
    """
    cols = read_csv(path)
    if "u" not in cols:
        raise ValueError(f"{path}: missing u column")
    if "y" in cols:
        kind, out = "y", cols["y"]
    elif "z" in cols:
        kind, out = "z", cols["z"]
    else:
        raise ValueError(f"{path}: need a y or z column")
    for name, values in (("u", cols["u"]), (kind, out)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: non-finite value in the {name} column")
    u = cols["u"]
    if "seq" in cols:
        seq = cols["seq"].astype(int)
        n_seq = seq.max() + 1
        T = u.shape[0] // n_seq
        if T * n_seq != u.shape[0] or np.any(
            seq != np.repeat(np.arange(n_seq), T)
        ):
            raise ValueError(f"{path}: malformed seq column")
        u = u.reshape(n_seq, T)
        out = out.reshape(n_seq, T)
    else:
        u = u[np.newaxis, :]
        out = out[np.newaxis, :]
    if kind == "z":
        z_int = out.astype(np.int64)
        if np.any(z_int != out):
            raise ValueError(f"{path}: z column must be integer-valued")
        out = z_int
    return u, out, kind


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def write_jsonl(path, records):
    """One JSON object per line; no records leave an empty file."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
