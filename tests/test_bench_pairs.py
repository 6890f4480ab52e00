"""The helpers of ``tools/bench_pairs.py``: pair order, quartiles, wins,
the position against the parent's IQR, the claim verdict, the regressions
beyond each metric's bound, and the two trees the sides run from.  No
benchmark runs and no commit of this repository is exported; one test
runs git in a scratch repository."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
HIGHER = {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


def result(wall_s, iters_per_s, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "iters_per_s": {"value": iters_per_s, "unit": "1/s"}}}


def test_pairs_alternate_which_side_goes_first():
    assert [bp.pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def test_quartiles_are_inclusive():
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bp.quartiles([4.0, 1.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_wins_follow_the_better_direction():
    parent, change = [10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 9.0, 10.0]
    assert bp.summarize_metric(LOWER, parent, change)["change_wins"] == "2/4"
    assert bp.summarize_metric(HIGHER, parent, change)["change_wins"] == "1/4"


def test_metric_summary_schema():
    parent, change = [10.0, 11.0, 12.0, 13.0, 14.0], [8.0, 8.5, 9.0, 9.5, 10.0]
    m = bp.summarize_metric(LOWER, parent, change)
    assert m["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert m["change"]["median"] == 9.0
    assert m["runs"] == {"parent": parent, "change": change}
    assert m["change_over_parent_median"] == 0.75
    assert (m["unit"], m["better"], m["bound"]) == ("s", "lower", 0.2)
    assert m["change_wins"] == "5/5"
    json.dumps(m)


def test_vs_parent_iqr_is_strict_and_follows_the_better_direction():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12, q3 - q1 = 2
    changes = (10.0, 9.99, 14.0, 14.01)
    assert [bp.summarize_metric(LOWER, parent, [x] * 5)["vs_parent_iqr"] for x in changes] == [
        "inside", "better", "inside", "worse",
    ]
    assert [bp.summarize_metric(HIGHER, parent, [x] * 5)["vs_parent_iqr"] for x in changes] == [
        "inside", "worse", "inside", "better",
    ]


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError, match="one parent run per change run"):
        bp.summarize_metric(LOWER, [1.0, 2.0], [1.0])


def test_workload_summary_counts_failed_ops():
    results = {"parent": [result(1.0, 5.0), result(1.1, 5.0, failed=2)],
               "change": [result(0.9, 6.0), result(0.8, 6.5, attempted=12)]}
    s = bp.summarize_workload([LOWER, HIGHER], [41, 42], results)
    assert (s["pairs"], s["seeds"]) == (2, [41, 42])
    assert s["failed_ops"] == {"parent": 2, "change": 0}
    assert s["attempted_ops"] == {"parent": 20, "change": 22}
    assert s["metrics"]["wall_s"]["runs"] == {"parent": [1.0, 1.1], "change": [0.9, 0.8]}
    assert s["metrics"]["iters_per_s"]["change_wins"] == "2/2"


def claim(wins, change_value=0.5, failed=(0, 0)):
    """The verdict on ``wall_s`` when the change runs ``change_value`` in
    ``wins`` of 10 pairs and 2.0 in the rest, against a parent at 0.9 and
    1.1 (median 1.0, q3 - q1 = 0.2), and the first pair's runs fail
    ``failed`` ops (parent, change)."""
    parent = [0.9, 1.1] * 5
    change = [change_value] * wins + [2.0] * (10 - wins)
    summary = {"w": bp.summarize_workload([LOWER], list(range(10)), {
        "parent": [result(v, 1.0, failed=failed[0] * (i == 0)) for i, v in enumerate(parent)],
        "change": [result(v, 1.0, failed=failed[1] * (i == 0)) for i, v in enumerate(change)],
    })}
    return bp.claim_verdict(summary, "w", "wall_s")


def test_claim_met_with_nine_wins_beyond_the_parent_iqr():
    assert claim(9) == {
        "workload": "w", "metric": "wall_s", "wins": 9, "pairs": 10,
        "vs_parent_iqr": "better", "failed_ops": {"parent": 0, "change": 0}, "met": True,
    }
    assert claim(10)["met"]


def test_claim_not_met_with_eight_wins():
    verdict = claim(8)
    assert (verdict["wins"], verdict["vs_parent_iqr"], verdict["met"]) == (8, "better", False)


def test_claim_not_met_inside_the_parent_iqr():
    # Ten wins, but the change median 0.85 is only 0.15 below the parent's.
    verdict = claim(10, change_value=0.85)
    assert (verdict["wins"], verdict["vs_parent_iqr"], verdict["met"]) == (10, "inside", False)


def test_claim_not_met_with_more_failed_ops():
    assert claim(10, failed=(1, 2))["met"] is False
    assert claim(10, failed=(2, 2))["met"] is True


def test_output_parsing_takes_env_line_and_last_line():
    stdout = ('env {"numpy": "2.0", "workload_seed": 3}\nworkload x\nmetric wall_s 1 s\n'
              + json.dumps(result(1.0, 2.0)) + "\n")
    env, res = bp.parse_output(stdout)
    assert env == {"numpy": "2.0", "workload_seed": 3}
    assert res == result(1.0, 2.0)


# The standard output of ``benchmarks/run.py --workload bw-lyapunov-diag
# --seed 7 --seconds 2`` on a 2-vCPU x86-64 VM.
RUN_STDOUT = (
    'env {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "affinity_cpus": 2, '
    '"blas": "scipy-openblas 0.3.31.188.0", '
    '"git_sha": "a60f59d488095821a103d399468832a31de6a4b7", "nproc": 2, '
    '"numpy": "2.4.6", "python": "3.11.7", "workload_seed": 7}\n'
    'workload bw-lyapunov-diag: lyapunov n=20, instance seeds [345173755, 670603789, '
    '1555471436, 4098716173, 1965169259, 1108769539, 3790368678, 107580793, '
    '477429597, 3721865186, 4291023257, 733472087, 3856286163, 4218492452]\n'
    'passes 2, instances 14, ops per pass 28\n'
    'metric setup_s 0.0150973470748129 s  (n=14)\n'
    'metric wall_s 0.809867706668287 s  (n=2)\n'
    'metric adgd.op_s.p50 0.04206818609968126 s  (n=14)\n'
    'metric armijo.op_s.p50 0.016183992192819564 s  (n=14)\n'
    'metric iters_per_s 2248.5153871505854 1/s\n'
    'metric peak_rss_mb 39.14453125 MB\n'
    'raw setup_s 0.034323849500651704 s\n'
    'raw wall_s 1.815430243499577 s\n'
    'raw adgd.op_s.p50 0.09393176199773734 s\n'
    'raw armijo.op_s.p50 0.036176108000290697 s\n'
    'raw iters_per_s 1003.0680090961172 1/s\n'
    'raw peak_rss_mb 39.14453125 MB\n'
    'fail_ratio 0.0 (0 of 56 ops)\n'
    '{"correct": true, "attempted": 56, "failed": 0, '
    '"metrics": {"setup_s": {"value": 0.0150973470748129, "unit": "s"}, '
    '"wall_s": {"value": 0.809867706668287, "unit": "s"}, '
    '"adgd.op_s.p50": {"value": 0.04206818609968126, "unit": "s"}, '
    '"armijo.op_s.p50": {"value": 0.016183992192819564, "unit": "s"}, '
    '"iters_per_s": {"value": 2248.5153871505854, "unit": "1/s"}, '
    '"peak_rss_mb": {"value": 39.14453125, "unit": "MB"}}}\n'
)


def test_output_parsing_of_a_benchmark_run_takes_its_raw_times():
    env, res = bp.parse_output(RUN_STDOUT)
    assert env["workload_seed"] == 7
    assert res["attempted"] == 56 and res["failed"] == 0
    assert res["metrics"]["adgd.op_s.p50"] == {"value": 0.04206818609968126, "unit": "s"}
    assert res["raw"] == {
        "setup_s": 0.034323849500651704, "wall_s": 1.815430243499577,
        "adgd.op_s.p50": 0.09393176199773734, "armijo.op_s.p50": 0.036176108000290697,
        "iters_per_s": 1003.0680090961172, "peak_rss_mb": 39.14453125,
    }


def test_workload_summary_reports_raw_medians_when_every_run_has_them():
    def timed(wall_s, raw_wall_s):
        return {**result(wall_s, 1.0), "raw": {"wall_s": raw_wall_s}}

    results = {"parent": [timed(1.0, 2.0), timed(1.2, 2.6), timed(1.1, 2.2)],
               "change": [timed(0.9, 1.8), timed(0.8, 1.7), timed(0.7, 1.4)]}
    s = bp.summarize_workload([LOWER, HIGHER], [1, 2, 3], results)
    assert s["metrics"]["wall_s"]["raw_median"] == {"parent": 2.2, "change": 1.7}
    assert s["metrics"]["iters_per_s"]["raw_median"] is None
    results["change"][1] = result(0.8, 1.0)
    s = bp.summarize_workload([LOWER], [1, 2, 3], results)
    assert s["metrics"]["wall_s"]["raw_median"] is None


def test_regressions_list_every_metric_worse_beyond_its_bound():
    # wall_s and iters_per_s have the bound 0.2: a change median worse
    # than the parent median by more than 20% of it is listed, and one
    # worse by more than the parent's IQR but inside its bound is not.
    parent = [result(1.0, 5.0), result(1.1, 5.0), result(1.2, 5.0)]  # medians 1.1 and 5
    slower = [result(1.4, 5.0)] * 3  # wall_s 27% worse, iters_per_s equal
    drift = [result(1.3, 4.1)] * 3  # 18% worse each, beyond wall_s's IQR of 0.1
    faster = [result(0.5, 9.0)] * 3
    summary = {
        "a": bp.summarize_workload([LOWER, HIGHER], [1, 2, 3], {"parent": parent, "change": slower}),
        "b": bp.summarize_workload([LOWER, HIGHER], [1, 2, 3], {"parent": parent, "change": faster}),
        "c": bp.summarize_workload([HIGHER, LOWER], [1, 2, 3], {
            "parent": parent, "change": [result(1.5, 1.0)] * 3}),
        "d": bp.summarize_workload([LOWER, HIGHER], [1, 2, 3], {"parent": parent, "change": drift}),
    }
    assert summary["d"]["metrics"]["wall_s"]["vs_parent_iqr"] == "worse"
    assert bp.regressions(summary) == [
        {"workload": "a", "metric": "wall_s"},
        {"workload": "c", "metric": "iters_per_s"},
        {"workload": "c", "metric": "wall_s"},
    ]
    assert bp.regressions({"b": summary["b"], "d": summary["d"]}) == []


def test_neither_side_runs_from_the_checkout(monkeypatch):
    made = []
    monkeypatch.setattr(bp, "export", lambda sha, dest: made.append(("export", sha, Path(dest))))
    monkeypatch.setattr(bp, "copy_checkout",
                        lambda root, dest: made.append(("copy", root, Path(dest))))
    with bp.side_roots("abc123") as roots:
        assert made == [("export", "abc123", roots["parent"]), ("copy", bp.ROOT, roots["change"])]
        for root in roots.values():
            assert root.is_dir()
            assert bp.ROOT not in (root, *root.parents)
        assert roots["parent"] != roots["change"]
    assert not any(root.exists() for root in roots.values())
    # Both trees are removed when the runs fail, too.
    with pytest.raises(RuntimeError), bp.side_roots("abc123") as roots:
        raise RuntimeError
    assert not any(root.exists() for root in roots.values())


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_copy_checkout_takes_tracked_files_as_the_working_tree_holds_them(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / "pkg").mkdir()
    for name in ("kept.py", "pkg/edited.py", "deleted.py"):
        (repo / name).write_text("committed\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "edited.py").write_text("uncommitted\n")
    (repo / "deleted.py").unlink()
    (repo / "staged.py").write_text("staged\n")
    git("add", "staged.py")
    (repo / "untracked.py").write_text("untracked\n")
    bp.copy_checkout(repo, dest)
    copied = {str(p.relative_to(dest)): p.read_text() for p in dest.rglob("*") if p.is_file()}
    assert copied == {"kept.py": "committed\n", "pkg/edited.py": "uncommitted\n",
                      "staged.py": "staged\n"}
