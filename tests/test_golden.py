"""Output bytes pinned by sha256: the CLI on the seed-0 standard suite, and
one pass of the benchmark's online workloads at seed 1.

Any change to a box, a mask, a score or the file formats changes these
digests, so a refactor that is meant to keep every output byte fails here
when it does not.  The bytes do not depend on the thread count, nor on the
OpenBLAS kernel: the long_memory pass and the attention byte tests, the
reads of the encoder's 8 real channels against those of levels zero-padded
to 32, and the refined stride-8 rows against a full-grid stage among them,
run again in subprocesses under
OPENBLAS_CORETYPE=Prescott and OPENBLAS_CORETYPE=Haswell.
"""

import ctypes
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

import mstrack
from mstrack.cli import main
from mstrack.kernels import _openblas_function

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

TRACK_S01_SHA256 = "dd210eea7a4b64073b107b7d3cf118d44864cccd4f207e8cc981882b864290ce"
OPE_REPORT_SHA256 = "bbd46cc2adb0d30f6ba56d40ec579320e2b9a52d42f8fa3168eb6ce1348fc8ba"
# the digest `perfbench/run.py --seed 1` prints for these workloads
PASS_SHA256 = {
    "long_memory": "8a63d62fdef8313ee6da950ad78975e2295586d9052b2f17f0b1eb81e0c9fa01",
    "large_frames": "3077d9713422389c8cab3fe115851a03064c0837e31314fcbc37ada7138d1140",
}


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("MSTRACK_THREADS", raising=False)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_standard_suite_track_and_ope_bytes(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", str(data), "--standard-suite"]) == 0
    results = tmp_path / "s01_slow_rect.txt"
    assert main(["track", str(data / "s01_slow_rect"), str(results)]) == 0
    report = tmp_path / "ope.json"
    assert main(["eval", str(data), str(report), "--protocol", "ope"]) == 0
    assert _sha256(results) == TRACK_S01_SHA256
    assert _sha256(report) == OPE_REPORT_SHA256


def _load_workloads(monkeypatch):
    # loaded the way perfbench/run.py loads it: no bytecode left in the checkout
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename")
# the instructions each forced kernel runs; OpenBLAS does not check them
_CORETYPE_CPU_FEATURES = {"Prescott": ("SSE3",), "Haswell": ("AVX2", "FMA3")}
_PRINT_CORENAME = f"""
import ctypes
from mstrack.kernels import _openblas_function
get = _openblas_function(*{_CORENAME!r})
get.restype = ctypes.c_char_p
print(get().decode())
"""


def _run_under_coretype(core, tmp_path_factory):
    """The long_memory pass and the attention byte tests in a subprocess
    under OPENBLAS_CORETYPE=`core`; yields (process, log), or None where
    that selects no other kernel or the CPU lacks its instructions.  The first test that asks for the fixtures
    below starts both subprocesses, so they run beside the in-process
    passes; the test named after each kernel waits for its subprocess.  A
    process under any forced kernel, such as one of these subprocesses,
    starts none, so a subprocess does not start the other kernel's in turn.
    """
    get = _openblas_function(*_CORENAME)
    runnable = all(__cpu_features__.get(f) for f in _CORETYPE_CPU_FEATURES[core])
    if get is None or "OPENBLAS_CORETYPE" in os.environ or not runnable:
        yield None
        return
    # the variable is read when the BLAS loads, so it is set per subprocess
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_CORETYPE"] = core
    get.restype = ctypes.c_char_p
    forced = subprocess.run(
        [sys.executable, "-c", _PRINT_CORENAME],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if forced == get().decode():
        yield None
        return
    tmp = tmp_path_factory.mktemp(core.lower())
    attention = ROOT / "tests" / "test_propagation.py"
    engine = ROOT / "tests" / "test_engine.py"
    with open(tmp / "pytest.log", "w+") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                f"--basetemp={tmp / 'base'}",
                f"{__file__}::test_benchmark_pass_bytes[long_memory]",
                f"{attention}::test_chunked_attention_read_bytes_equal_one_composed_read",
                f"{attention}::test_chunked_attention_read_bytes_on_engine_shapes",
                f"{attention}::test_a_read_without_its_map_keeps_its_bytes",
                f"{attention}::test_reads_of_a_grown_long_term_memory_keep_their_bytes",
                f"{engine}::test_narrow_levels_keep_the_bytes_of_zero_padded_levels",
                f"{engine}::test_refined_stride8_rows_keep_the_bytes_of_a_full_grid_stage",
            ],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, text=True,
        )
        try:
            yield proc, log
        finally:
            proc.kill()
            proc.wait()


@pytest.fixture(scope="module")
def prescott_run(tmp_path_factory):
    yield from _run_under_coretype("Prescott", tmp_path_factory)


@pytest.fixture(scope="module")
def haswell_run(tmp_path_factory):
    yield from _run_under_coretype("Haswell", tmp_path_factory)


@pytest.mark.parametrize("name", sorted(PASS_SHA256))
def test_benchmark_pass_bytes(name, prescott_run, haswell_run, monkeypatch, tmp_path):
    # the coretype runs are asked for only to start them beside these passes
    workloads = _load_workloads(monkeypatch)
    workload = workloads.make(name, mstrack, 1, tmp_path)
    workload.setup()
    record = workloads.PassRecord()
    workload.run_pass(record)
    assert record.runs_failed == 0
    assert record.digest() == PASS_SHA256[name]


def _assert_coretype_run_passed(run, core):
    if run is None:
        pytest.skip(f"already under a forced kernel, or {core} cannot run or selects no other kernel here")
    proc, log = run
    proc.wait(timeout=600)
    log.seek(0)
    out = log.read()
    assert proc.returncode == 0, out[-4000:]
    assert "8 passed" in out


def test_bytes_hold_under_the_prescott_blas_kernel(prescott_run):
    _assert_coretype_run_passed(prescott_run, "Prescott")


def test_bytes_hold_under_the_haswell_blas_kernel(haswell_run):
    _assert_coretype_run_passed(haswell_run, "Haswell")
