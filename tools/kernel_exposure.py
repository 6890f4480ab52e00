#!/usr/bin/env python3
"""Which outputs move when OpenBLAS runs another CPU kernel.

Usage (from any directory)::

    python3 tools/kernel_exposure.py OUT

runs ``tools/fingerprint.py`` once with OpenBLAS's default kernel and once
for each ``OPENBLAS_CORETYPE`` below that this CPU can execute, writing
each fingerprint under OUT, and prints a Markdown report: per core type,
the kernel OpenBLAS reports using and the number of files that differ
from the default kernel's output; then, per differing file, its first
differing line and field under each kernel.

A core type whose instructions the CPU lacks is never requested: its
kernel would die with an illegal instruction (SkylakeX without AVX-512).
The CPU flags come from ``/proc/cpuinfo``, intersected over all
processors.  A core type OpenBLAS maps to a kernel already fingerprinted
(on some builds ``Zen`` runs the Haswell kernel) reuses that kernel's
fingerprint.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# x86-64 core types and the /proc/cpuinfo flags their kernels may use
# (``pni`` is SSE3).  Each set is a superset of what the kernel needs, so
# a missing flag can only skip a runnable core type, never run a bad one.
_SSE3 = {"sse2", "pni", "ssse3"}
_AVX = _SSE3 | {"sse4_1", "sse4_2", "avx"}
_AVX2 = _AVX | {"avx2", "fma"}
_AVX512 = _AVX2 | {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"}
CORE_FLAGS = {
    "Prescott": {"sse2", "pni"},
    "Core2": _SSE3,
    "Nehalem": _SSE3 | {"sse4_1", "sse4_2"},
    "Sandybridge": _AVX,
    "Haswell": _AVX2,
    "Zen": _AVX2,
    "SkylakeX": _AVX512,
    "CooperLake": _AVX512 | {"avx512_bf16"},
    "SapphireRapids": _AVX512 | {"avx512_bf16", "avx512_fp16", "amx_tile", "amx_bf16"},
    "Bulldozer": _AVX | {"sse4a", "fma4", "xop"},
    "Excavator": _AVX2 | {"sse4a", "fma4", "xop"},
}


def cpu_flags(cpuinfo):
    """The flags every processor in ``/proc/cpuinfo`` text lists."""
    sets = [set(line.split(":", 1)[1].split()) for line in cpuinfo.splitlines()
            if re.match(r"flags\s*:", line)]
    return set.intersection(*sets) if sets else set()


def split_core_types(flags):
    """(core types the CPU can run, {core type: missing flags} for the rest)."""
    runnable, skipped = [], {}
    for core, needed in CORE_FLAGS.items():
        missing = needed - flags
        if missing:
            skipped[core] = sorted(missing)
        else:
            runnable.append(core)
    return runnable, skipped


def _first_unequal(xs, ys):
    """Index of the first position where sequences xs and ys differ, or
    None when they are equal."""
    for j in range(max(len(xs), len(ys))):
        if j >= len(xs) or j >= len(ys) or xs[j] != ys[j]:
            return j
    return None


def first_difference(name, old, new):
    """Where texts ``old`` and ``new`` of file ``name`` first differ:
    ``(line number, field)``, or None when they are equal.

    In a trace CSV the field is the header's column name, or the key on
    the ``#`` metadata line; elsewhere it is the 1-based index of the first
    differing whitespace-separated token.  The field is None when a line
    is missing on one side or differs only in whitespace.
    """
    old_lines, new_lines = old.splitlines(), new.splitlines()
    i = _first_unequal(old_lines, new_lines)
    if i is None:
        return None
    if i >= len(old_lines) or i >= len(new_lines):
        return i + 1, None
    a, b = old_lines[i], new_lines[i]
    if not name.endswith(".csv"):
        j = _first_unequal(a.split(), b.split())
        return i + 1, None if j is None else j + 1
    if i == 0:
        xs, ys = a[2:].split(" "), b[2:].split(" ")
        j = _first_unequal(xs, ys)
        return 1, None if j is None else (xs if j < len(xs) else ys)[j].partition("=")[0]
    header = old_lines[1].split(",")
    j = _first_unequal(a.split(","), b.split(","))
    return i + 1, header[j] if j < len(header) else j + 1


def _env(core, **extra):
    """The environment with ``OPENBLAS_CORETYPE=core``, unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return env | extra


def reported_core(core):
    """The kernel OpenBLAS reports under ``_env(core)``, read from its
    ``OPENBLAS_VERBOSE=2`` start-up line."""
    result = subprocess.run([sys.executable, "-c", "import numpy"], env=_env(core, OPENBLAS_VERBOSE="2"),
                            capture_output=True, text=True, check=True)
    found = re.findall(r"Core: (\S+)", result.stdout + result.stderr)
    return found[-1] if found else "?"


def fingerprint(core, out):
    """Run ``tools/fingerprint.py out`` under ``_env(core)``; return {file: text}."""
    subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), str(out)],
                   env=_env(core), check=True)
    return {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/kernel_exposure.py OUT")
    out = Path(argv[0])
    if out.exists():
        sys.exit(f"error: {out} already exists")
    out.mkdir(parents=True)
    runnable, skipped = split_core_types(cpu_flags(Path("/proc/cpuinfo").read_text()))

    default_core = reported_core(None)
    default = fingerprint(None, out / "default")
    by_kernel = {default_core: {}}  # kernel -> {file: (line, field)} against the default
    rows = [("(unset)", default_core, "default")]
    for core in runnable:
        kernel = reported_core(core)
        if kernel not in by_kernel:
            files = fingerprint(core, out / core)
            diffs = {}
            for name in sorted(set(default) | set(files)):
                where = first_difference(name, default.get(name, ""), files.get(name, ""))
                if where is not None:
                    diffs[name] = where
            by_kernel[kernel] = diffs
        rows.append((core, kernel, f"{len(by_kernel[kernel])} of {len(default)}"))

    print("| `OPENBLAS_CORETYPE` | kernel reported | files differing from default |")
    print("| --- | --- | --- |")
    for core, kernel, count in rows:
        print(f"| {core} | {kernel} | {count} |")
    for core, missing in skipped.items():
        print(f"| {core} | not run: CPU lacks {', '.join(missing)} | - |")
    moved = [kernel for kernel, diffs in by_kernel.items() if diffs]
    if moved:
        print("\nFirst differing line and field per file:\n")
        print(f"| file | {' | '.join(moved)} |")
        print("| --- |" + " --- |" * len(moved))
        for name in sorted(set().union(*(by_kernel[kernel] for kernel in moved))):
            cells = [by_kernel[kernel].get(name) for kernel in moved]
            cells = ["" if c is None else f"{c[0]} `{'-' if c[1] is None else c[1]}`" for c in cells]
            print(f"| `{name}` | {' | '.join(cells)} |")


if __name__ == "__main__":
    main(sys.argv[1:])
