"""``experiments/bench_inproc.py`` on two temporary copies of this tree, 2
blocks each: the report's form, and that ``--same-bits`` passes when both
sides train alike and stops at the first chunk where they do not."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "experiments" / "bench_inproc.py"
RATIO = r"median (\d\.\d{3}), 95% interval \[(\d\.\d{3}), (\d\.\d{3})\]"


def copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "ensad", dest / "src" / "ensad",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--workload", "desk_pretrain", "--blocks", "2", "--same-bits"],
        capture_output=True, text=True, timeout=120, check=False)


def test_an_a_a_run_reports_both_timers_and_equal_checkpoints(tmp_path):
    proc = bench(copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("desk_pretrain: 2 blocks of one 100-step chunk per side, "
                        "the parent first in even blocks")
    for line, timer in zip(lines[1:3], ("process_time", "perf_counter")):
        match = re.fullmatch(f"{timer}: change/parent chunk time {RATIO}", line)
        assert match, line
        median, lo, hi = map(float, match.groups())
        assert lo <= median <= hi
    # a warm-up chunk and two blocks of 100 steps
    assert lines[3:] == ["same bits: equal checkpoints after every block (step 300)"]


def test_same_bits_stops_where_the_checkpoints_first_differ(tmp_path):
    change = copy_tree(tmp_path / "b")
    gan = change / "src" / "ensad" / "gan.py"
    text = gan.read_text(encoding="utf-8")
    assert text.count("_ADAM_EPS = 1e-8") == 1
    gan.write_text(text.replace("_ADAM_EPS = 1e-8", "_ADAM_EPS = 1e-7"), encoding="utf-8")
    proc = bench(copy_tree(tmp_path / "a"), change)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[1:] == ["same bits: the checkpoints differ at step 100"]
