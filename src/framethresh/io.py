"""File formats: signals as CSV or raw little-endian float64, matrices and
coefficient vectors as CSV (the latter written with index columns), reports
as JSON, Q-Q tables as CSV."""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import numpy as np


class FileFormatError(ValueError):
    pass


def read_signal(path):
    """CSV (one value per line) or raw little-endian float64 by extension
    (.f64/.bin/.raw).  A file with no values is a FileFormatError."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".f64", ".bin", ".raw"):
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) % 8:
            raise FileFormatError(
                f"signal file {path} holds {len(raw)} bytes, "
                "not a whole number of float64 values")
        values = np.frombuffer(raw, dtype="<f8").astype(float)
    else:
        values = _load_csv(path, "signal", ndmin=1)
        if values.ndim != 1:
            raise FileFormatError(f"signal file {path} must hold one value per line")
    if values.size == 0:
        raise FileFormatError(f"signal file {path} holds no values")
    return values


def read_matrix(path):
    """A CSV matrix, one row per line and comma-separated columns, as a 2-D
    float array.  A file with no values is a FileFormatError."""
    values = _load_csv(path, "matrix", delimiter=",", ndmin=2)
    if values.size == 0:
        raise FileFormatError(f"matrix file {path} holds no values")
    return values


def _load_csv(path, kind, **kwargs):
    """np.loadtxt as floats, with FileFormatError for text that does not
    parse and no warning for a file with no values (the callers refuse it)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, dtype=float, **kwargs)
    except ValueError as exc:
        raise FileFormatError(f"could not parse {kind} file {path}: {exc}") from exc


def write_signal(path, signal):
    signal = np.asarray(signal, dtype=float)
    ext = os.path.splitext(path)[1].lower()
    if ext in (".f64", ".bin", ".raw"):
        with open(path, "wb") as fh:
            fh.write(signal.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            for v in signal:
                fh.write(f"{float(v)!r}\n")


def write_coefficients(path, coeffs):
    """CSV with the frame's index columns followed by the value column."""
    with open(path, "w") as fh:
        fh.write(",".join(coeffs.label_names) + ",value\n")
        for i in range(coeffs.count):
            idx = ",".join(str(int(col[i])) for col in coeffs.labels)
            fh.write(f"{idx},{float(coeffs.values[i])!r}\n")


def write_qq(path, pairs):
    with open(path, "w") as fh:
        fh.write("empirical_quantile,gumbel_quantile\n")
        for e, g in pairs:
            fh.write(f"{float(e)!r},{float(g)!r}\n")


def to_jsonable(obj):
    """Recursively convert dataclasses/ndarrays for JSON reports."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(to_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
