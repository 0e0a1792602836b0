"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They check the span arithmetic, the wrappers' install/uninstall, and run
the smoke mode, which drives every workload at a tiny size through the same
code as a real run and checks every metric name and unit against
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Target, Tracer  # noqa: E402


class _Toy:
    def outer(self, n: int) -> int:
        time.sleep(0.002)
        return sum(self.inner() for _ in range(n))

    def inner(self) -> int:
        time.sleep(0.001)
        return 1

    def poll(self, ready: bool) -> bool:
        return ready


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.install([Target(_Toy, "outer", "toy.outer"),
                    Target(_Toy, "inner", "toy.inner")])
    try:
        with tracer.span("root"):
            assert _Toy().outer(3) == 3
    finally:
        tracer.uninstall()
    table = tracer.table()
    outer = table.select("toy.outer")
    inner = table.select("toy.inner")
    root = table.select("root")
    assert outer.sum() == 1 and inner.sum() == 3 and root.sum() == 1
    children = table.duration[inner].sum()
    assert table.self_ns[outer][0] == table.duration[outer][0] - children
    # Every nanosecond of the root is some span's self time.
    assert table.self_ns.sum() == table.duration[root][0]


def test_uninstall_restores_the_class():
    original = _Toy.__dict__["inner"]
    tracer = Tracer()
    tracer.install([Target(_Toy, "inner", "toy.inner")])
    assert _Toy.__dict__["inner"] is not original
    tracer.uninstall()
    assert _Toy.__dict__["inner"] is original


def test_by_result_counts_only_productive_calls():
    tracer = Tracer()
    tracer.install([Target(_Toy, "poll", "toy.poll", by_result=True)])
    try:
        toy = _Toy()
        for ready in (True, False, False, True):
            toy.poll(ready)
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert table.size[table.select("toy.poll")].tolist() == [1, 0, 0, 1]


def test_smoke_mode_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "cls-missheavy", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
