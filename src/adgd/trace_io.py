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
import dataclasses
import io
import typing

from .optimizers import STATUS_ABORTED, Trace, TraceRow

HEADER = [f.name for f in dataclasses.fields(TraceRow)]

# One parser per TraceRow annotation, so the columns' types are declared
# only on TraceRow.
_PARSERS = {
    int: int,
    float: float,
    bool: lambda text: bool(int(text)),
    typing.Optional[float]: lambda text: None if text == "" else float(text),
}
_COLUMN_PARSERS = [_PARSERS[hint] for hint in typing.get_type_hints(TraceRow).values()]

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


def _meta_line(meta):
    parts = []
    for key in META_KEYS:
        value = meta.get(key)
        if value is None:
            value = "-"
        elif isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float):
            value = f"{value:.17g}"
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
    # Numeric fields need no CSV quoting, so each row is one f-string.
    for i, row in enumerate(trace.rows):
        dist = "" if row.dist_to_opt is None else f"{row.dist_to_opt:.17g}"
        tail = "" if deviations is None else f",{deviations[i]:.17g}"
        buf.write(
            f"{row.k},{row.phi:.17g},{row.grad_norm:.17g},{row.alpha:.17g},"
            f"{row.theta:.17g},{row.ell:.17g},{row.fn_evals},{row.exp_evals},"
            f"{row.expensive_ops},{dist},{int(row.clamped)}{tail}\n"
        )
    if trace.status == STATUS_ABORTED:
        # The message is free text, so the marker keeps csv's quoting.
        marker = [str(len(trace.rows)), "error", trace.message.replace(",", ";")]
        marker += [""] * (len(header) - len(marker))
        csv.writer(buf, lineterminator="\n").writerow(marker)
    return buf.getvalue()


def write_trace(path, trace, meta, deviations=None):
    """Write :func:`render_trace`'s text to ``path``, byte for byte."""
    text = render_trace(trace, meta, deviations)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_trace(path):
    """Parse a trace file into ``(meta, trace, deviations)``.

    ``meta`` maps each metadata key to its text, or ``None`` for ``-``.
    ``trace`` is a ``Trace`` of ``TraceRow``s typed as the run built them.
    Its status is ``aborted`` with the marker's text as message when the
    file has an error marker, else the metadata's ``status``.  The file
    holds no iterates, so ``trace.points`` is empty.  ``deviations`` is the
    ``deviation`` column, or ``None`` without one.  A file that breaks the
    format contract raises ``ValueError`` naming ``path``.
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
    if header not in (HEADER, HEADER + ["deviation"]):
        raise ValueError(f"{path}: missing or malformed header row")
    rows = []
    deviations = [] if len(header) > len(HEADER) else None
    status, message = meta["status"], ""
    for rec in reader:
        where = f"{path}:{reader.line_num + 1}"
        if len(rec) != len(header):
            raise ValueError(f"{where}: {len(rec)} fields where the header has {len(header)}")
        if rec[1] == "error":
            status, message = STATUS_ABORTED, rec[2]
            continue
        try:
            rows.append(TraceRow(*(parse(text) for parse, text in zip(_COLUMN_PARSERS, rec))))
            if deviations is not None:
                deviations.append(float(rec[-1]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return meta, Trace(rows, [], status, message), deviations
