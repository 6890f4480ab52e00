"""Deterministic CSV serialization of run traces.

Format contract: UTF-8, LF line endings, one leading ``#`` metadata line
(space-separated ``key=value`` pairs, fixed key order), a mandatory
header row, then one row per iterate.  Floats are rendered with 17
significant digits so files round-trip 64-bit values losslessly and
identical runs produce byte-identical files.  A run that aborted
numerically flushes its partial trace followed by one error-marker row
(second field ``error``); all other rows contain only finite numbers,
with an empty ``dist_to_opt`` field when no optimum is known.
"""

from __future__ import annotations

import csv
import io

HEADER = [
    "k",
    "phi",
    "grad_norm",
    "alpha",
    "theta",
    "ell",
    "fn_evals",
    "exp_evals",
    "expensive_ops",
    "dist_to_opt",
    "clamped",
]

META_KEYS = [
    "experiment",
    "optimizer",
    "n",
    "seed",
    "max_iters",
    "tol",
    "alpha0",
    "first_ls",
    "armijo_c",
    "armijo_beta",
    "armijo_lambda",
    "fixed_alpha",
    "phi_star",
    "status",
]


def fmt(x):
    """17-significant-digit decimal rendering of a float."""
    return format(float(x), ".17g")


def _meta_line(meta):
    parts = []
    for key in META_KEYS:
        value = meta.get(key)
        if value is None:
            value = "-"
        elif isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float):
            value = fmt(value)
        parts.append(f"{key}={value}")
    return "# " + " ".join(parts)


def render_trace(trace, meta, deviations=None):
    """Serialize a trace to the CSV text (string) described above.

    ``deviations`` adds a final ``deviation`` column (used by the
    flat-space equivalence experiment), one value per row.
    """
    header = list(HEADER)
    if deviations is not None:
        header.append("deviation")
        if len(deviations) != len(trace.rows):
            raise ValueError("one deviation value per trace row required")
    buf = io.StringIO()
    buf.write(_meta_line(meta) + "\n")
    buf.write(",".join(header) + "\n")
    # Numeric fields need no CSV quoting, so each row is one f-string;
    # f"{x:.17g}" renders exactly as fmt(x).
    for i, row in enumerate(trace.rows):
        dist = "" if row.dist_to_opt is None else f"{row.dist_to_opt:.17g}"
        tail = "" if deviations is None else f",{deviations[i]:.17g}"
        buf.write(
            f"{row.k},{row.phi:.17g},{row.grad_norm:.17g},{row.alpha:.17g},"
            f"{row.theta:.17g},{row.ell:.17g},{row.fn_evals},{row.exp_evals},"
            f"{row.expensive_ops},{dist},{int(row.clamped)}{tail}\n"
        )
    if trace.status == "aborted":
        # The message is free text, so the marker keeps csv's quoting.
        marker = [str(len(trace.rows)), "error", trace.message.replace(",", ";")]
        marker += [""] * (len(header) - len(marker))
        csv.writer(buf, lineterminator="\n").writerow(marker)
    return buf.getvalue()


def write_trace(path, trace, meta, deviations=None):
    text = render_trace(trace, meta, deviations)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_trace(path):
    """Parse a trace file into (meta dict, row dicts, error message or None).

    Numeric fields come back as float/int; empty dist_to_opt becomes None.
    A file that breaks the format contract raises ``ValueError`` naming
    ``path``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing metadata line")
    meta = {}
    for part in lines[0][2:].split(" "):
        key, _, value = part.partition("=")
        meta[key] = None if value == "-" else value
    missing = [key for key in META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{path}: metadata line lacks {', '.join(missing)}")
    reader = csv.reader(lines[1:])
    header = next(reader, None)
    if header is None or header[: len(HEADER)] != HEADER:
        raise ValueError(f"{path}: missing or malformed header row")
    rows = []
    error = None
    for rec in reader:
        where = f"{path}:{reader.line_num + 1}"
        if len(rec) != len(header):
            raise ValueError(f"{where}: {len(rec)} fields where the header has {len(header)}")
        if rec[1] == "error":
            error = rec[2]
            continue
        try:
            row = {"k": int(rec[0])}
            for name, value in zip(header[1:], rec[1:]):
                if name in ("fn_evals", "exp_evals", "expensive_ops", "clamped"):
                    row[name] = int(value)
                else:
                    row[name] = None if value == "" else float(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        rows.append(row)
    return meta, rows, error
