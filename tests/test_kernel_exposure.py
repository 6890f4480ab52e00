"""The pure helpers of ``tools/kernel_exposure.py``: the CPU-flag filter
and the diff locator.  No kernel is requested and no subprocess runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "kernel_exposure.py"
_spec = importlib.util.spec_from_file_location("kernel_exposure", _PATH)
kx = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kx)

AVX2_ONLY = "sse sse2 pni ssse3 fma sse4_1 sse4_2 avx f16c avx2 bmi2"
AVX512 = AVX2_ONLY + " avx512f avx512dq avx512cd avx512bw avx512vl"


def cpuinfo(*flag_lines):
    return "\n\n".join(
        f"processor\t: {i}\nmodel name\t: x\nflags\t\t: {flags}\nbugs\t\t: spectre_v1"
        for i, flags in enumerate(flag_lines)
    )


class TestFlagFilter:
    def test_flags_are_those_every_processor_lists(self):
        assert kx.cpu_flags(cpuinfo("a b c", "b c d")) == {"b", "c"}
        assert kx.cpu_flags("") == set()

    def test_no_avx512_never_requests_skylakex(self):
        runnable, skipped = kx.split_core_types(kx.cpu_flags(cpuinfo(AVX2_ONLY)))
        assert "Haswell" in runnable and "Sandybridge" in runnable
        assert "SkylakeX" not in runnable
        assert "avx512f" in skipped["SkylakeX"]
        assert set(runnable) | set(skipped) == set(kx.CORE_FLAGS)

    def test_one_processor_without_avx512_skips_it(self):
        runnable, _ = kx.split_core_types(kx.cpu_flags(cpuinfo(AVX512, AVX2_ONLY)))
        assert "SkylakeX" not in runnable
        runnable, _ = kx.split_core_types(kx.cpu_flags(cpuinfo(AVX512, AVX512)))
        assert "SkylakeX" in runnable

    def test_every_kernel_needs_at_least_sse2(self):
        runnable, skipped = kx.split_core_types(set())
        assert runnable == [] and set(skipped) == set(kx.CORE_FLAGS)
        assert all("sse2" in needed for needed in kx.CORE_FLAGS.values())


TRACE = "# experiment=rayleigh n=4 status=converged\nk,phi,ell\n0,1.5,0\n1,1.25,0.5\n"


class TestDiffLocator:
    def test_equal_texts(self):
        assert kx.first_difference("cli/rayleigh.csv", TRACE, TRACE) is None

    @pytest.mark.parametrize("old, new, where", [
        ("1,1.25,0.5", "1,1.25,0.50000000000000011", (4, "ell")),
        ("1,1.25,0.5", "1,1.2500000000000002,0.5", (4, "phi")),
        ("1,1.25,0.5", "1,1.25,0.5,7", (4, 4)),
        ("status=converged", "status=aborted", (1, "status")),
        ("n=4 status=converged", "n=4", (1, "status")),
    ])
    def test_csv_names_the_column_or_key(self, old, new, where):
        assert kx.first_difference("a.csv", TRACE, TRACE.replace(old, new)) == where

    def test_missing_line(self):
        assert kx.first_difference("a.csv", TRACE, TRACE.rsplit("1,", 1)[0]) == (4, None)
        assert kx.first_difference("a.csv", "", TRACE) == (1, None)

    def test_other_files_name_the_token(self):
        old = "PASS radius slack -1.2e-03\nworst 4.5e-08\n"
        assert kx.first_difference("demos/x.stdout", old, old.replace("4.5", "4.6")) == (2, 2)
        assert kx.first_difference("demos/x.stdout", old, old.replace("worst ", "worst  ")) == (2, None)
        assert kx.first_difference("cli/x.exit", "0\n", "3\n") == (1, 1)
