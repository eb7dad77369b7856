"""On-disk formats: schema-tagged JSON for histograms, CSV for sweeps and
the response matrices of ``channel_matrix``. Histogram and sweep files
round-trip exactly; response matrices are exported with 12 significant
digits. Every CSV reader goes through one parser, ``_read_csv``. All
writes are atomic (temp file plus rename)."""
from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .histograms import CountHistogram, JointCountHistogram, SweepSeries

SCHEMA_HIST = "mppc-hist/1"
SCHEMA_JOINT = "mppc-joint/1"
G2_SWEEP_HEADER = "mean_counts_per_pulse,g2,g2_err"
NRF_SWEEP_HEADER = "mean_photons,nrf,nrf_err"


class SchemaError(ValueError):
    """The file does not match the declared schema."""


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open a text file for writing that appears at ``path`` only on success.

    Writes go to a temp file in the target directory, which replaces
    ``path`` when the block exits normally and is removed on any exception,
    leaving an existing file at ``path`` untouched. The file is created
    with mode 0666 less the umask, like a plain ``open``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text via a temp file in the target directory plus rename."""
    with atomic_open(path) as fh:
        fh.write(text)


def _write_counts_doc(path, schema: str, hist) -> None:
    rounded = np.rint(hist.counts)
    if np.any(np.abs(hist.counts - rounded) > 1e-9):
        raise ValueError("only integer event histograms are serialized")
    doc = {
        "schema": schema,
        "trials": int(hist.trials),
        "counts": rounded.astype(np.int64).tolist(),
        "meta": hist.meta,
    }
    # numpy scalars and arrays in the metadata are written as their plain values
    atomic_write_text(path, json.dumps(doc, indent=1, default=lambda v: v.tolist()) + "\n")


def write_histogram(path, hist: CountHistogram) -> None:
    _write_counts_doc(path, SCHEMA_HIST, hist)


def _read_counts_doc(path, schema: str) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise SchemaError(f"{path}: expected schema {schema!r}")
    missing = [key for key in ("trials", "counts") if key not in doc]
    if missing:
        raise SchemaError(f"{path}: missing {' and '.join(missing)}")
    try:
        counts = np.asarray(doc["counts"], dtype=np.int64)
    except (TypeError, ValueError):
        counts = None
    # the int64 cast truncates 1.5 to 1; compare with the values as written
    if counts is None or not np.array_equal(counts, doc["counts"]):
        raise SchemaError(f"{path}: counts must be integers")
    return doc, counts


def read_histogram(path) -> CountHistogram:
    doc, counts = _read_counts_doc(path, SCHEMA_HIST)
    if counts.sum() != doc["trials"]:
        raise SchemaError(f"{path}: counts do not sum to trials")
    return CountHistogram(doc["trials"], counts, doc.get("meta", {}))


def write_joint_histogram(path, joint: JointCountHistogram) -> None:
    _write_counts_doc(path, SCHEMA_JOINT, joint)


def read_joint_histogram(path) -> JointCountHistogram:
    doc, counts = _read_counts_doc(path, SCHEMA_JOINT)
    if counts.ndim != 2 or counts.sum() != doc["trials"]:
        raise SchemaError(f"{path}: counts matrix does not sum to trials")
    return JointCountHistogram(doc["trials"], counts, doc.get("meta", {}))


def _write_rows(path, header: str, rows) -> None:
    rows = sorted(rows, key=lambda r: r[0])
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path, header_ok, expected: str) -> np.ndarray:
    """Rows under a header that ``header_ok`` accepts, as finite floats sorted
    by the first column; a header-only file gives an empty 1-d array."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not header_ok(lines[0]):
        raise SchemaError(f"{path}: expected {expected}")
    width = lines[0].count(",")
    if any(ln.count(",") != width for ln in lines[1:]):
        raise SchemaError(f"{path}: rows must be as wide as the header")
    if len(lines) == 1:
        return np.empty(0)  # loadtxt would warn that the input holds no data
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not np.isfinite(data).all():
        raise SchemaError(f"{path}: entries must be finite")
    if np.any(np.diff(data[:, 0]) < 0):
        raise SchemaError(f"{path}: rows not sorted by first column")
    return data


def _read_rows(path, header: str) -> np.ndarray:
    return _read_csv(path, lambda head: head == header, f"header {header!r}")


def write_g2_sweep(path, series: SweepSeries) -> None:
    _write_rows(path, G2_SWEEP_HEADER, series.points.tolist())


def read_g2_sweep(path) -> SweepSeries:
    return SweepSeries(_read_rows(path, G2_SWEEP_HEADER))


def write_nrf_sweep(path, rows) -> None:
    _write_rows(path, NRF_SWEEP_HEADER, rows)


def read_nrf_sweep(path) -> np.ndarray:
    return _read_rows(path, NRF_SWEEP_HEADER)


def write_povm_csv(path, q: np.ndarray) -> None:
    """Write the response matrix ``q[N, k]`` of ``channel_matrix``."""
    lines = ["N," + ",".join(str(k) for k in range(q.shape[1]))]
    for n, row in enumerate(q):
        entries = ",".join(f"{v:.12g}" for v in row)
        lines.append(f"{n},{entries}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_povm_csv(path) -> np.ndarray:
    rows = _read_csv(path, lambda head: head.startswith("N,"), "a response-matrix header")
    if not rows.size:
        raise SchemaError(f"{path}: expected one or more rows as wide as the header")
    return rows[:, 1:]


def _sig6(value):
    if value is None:
        return None
    return float(f"{float(value):.6g}")


def calibration_result_doc(result) -> dict:
    """JSON document of a ``CalibrationResult``, decimals at 6 significant digits."""
    doc = {key: _sig6(getattr(result, key))
           for key in ("p_hat", "p_err", "a_coef", "b_coef", "cod", "chi2")}
    return {**doc, "dof": result.dof, "residuals": [_sig6(r) for r in result.residuals],
            "method": result.method}


def write_calibration_result(path, result) -> None:
    atomic_write_text(path, json.dumps(calibration_result_doc(result), indent=1) + "\n")
