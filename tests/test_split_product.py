"""The adjoint's split payload product: the bits of one GEMV, on any number of cores.

`measurements._vecmat(w, mat)` computes w @ mat for a payload of SPLIT_ENTRIES or more
stored entries, under one BLAS thread and on two usable CPUs or more, as two column chunks: the
caller runs one, a one-thread pool the other.  The bound between them depends on the payload's
shape alone and falls on a multiple of 64 columns, so the product, and every adjoint and solve
built on it, has the bytes of the single product whether the chunks run inline (one usable CPU)
or on the pool, from one caller or from many, and in a forked child of a process that already
split.  That is the one-BLAS-thread product: OpenBLAS threads large products itself, so the
checks at the benchmark's size pin it to one.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisparse import measurements
from bisparse.measurements import sample_map


def bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def force_split(patch, cpus: int = 2, threshold: int = 1) -> None:
    """Split from `threshold` entries on, as under one BLAS thread with `cpus` usable CPUs."""
    patch.setattr(measurements, "SPLIT_ENTRIES", threshold)
    patch.setattr(measurements, "_ONE_BLAS_THREAD", True)
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    patch.setattr(os, "cpu_count", lambda: cpus)


class CountingPool:
    """The split's pool, counting the chunks handed to it."""

    def __init__(self, pool):
        self.pool, self.jobs = pool, 0

    def submit(self, *args):
        self.jobs += 1
        return self.pool.submit(*args)


def counting_pool(patch, pool=None) -> CountingPool:
    counting = CountingPool(pool or measurements._pool)
    patch.setattr(measurements, "_pool", counting)
    return counting


@pytest.fixture(scope="module")
def big_map():
    """The headtail-dense-n100 shape: a 629 x 5050 packed payload, above the threshold.

    The tests that use it compare split outputs with split outputs, so they hold at any
    BLAS thread count."""
    mp = sample_map("dense-gaussian", 100, 629, seed=11)
    assert mp.matrices.size >= measurements.SPLIT_ENTRIES
    return mp


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1000), st.integers(0, 4), st.integers(0, 63), st.integers(0, 2**32 - 1))
def test_split_product_is_the_single_product_bitwise(m, blocks, rest, seed):
    # N = 64 * blocks + rest covers every remainder mod 64, split from 128 columns on; at most
    # 1000 x 319 entries, below the sizes OpenBLAS splits across threads of its own (see below)
    k = 64 * blocks + rest or 1
    rng = np.random.default_rng(seed)
    mat, w = rng.standard_normal((m, k)), rng.standard_normal(m)
    with pytest.MonkeyPatch.context() as patch:
        force_split(patch)
        pool = counting_pool(patch)
        assert bits(measurements._vecmat(w, mat)) == bits(w @ mat)
    assert pool.jobs == (k >= 128)


@pytest.mark.parametrize("cpus, threads", [(1, 0), (2, 1), (3, 2)])
def test_the_bits_do_not_depend_on_the_pool(monkeypatch, cpus, threads):
    # no pool thread (one usable CPU: both chunks inline), the split's own, a pool of two
    rng = np.random.default_rng(cpus)
    mat, w = rng.standard_normal((300, 64 * 9 + 5)), rng.standard_normal(300)
    want = bits(w @ mat)
    with ThreadPoolExecutor(2) as two:
        pool = counting_pool(monkeypatch, two if threads == 2 else None)
        for threshold in (1, mat.size, mat.size + 1):
            force_split(monkeypatch, cpus, threshold)
            assert bits(measurements._vecmat(w, mat)) == want, threshold
    assert pool.jobs == (2 if cpus > 1 else 0)


def test_without_sched_getaffinity_every_cpu_counts(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; the split counts os.cpu_count() there
    rng = np.random.default_rng(17)
    mat, w = rng.standard_normal((200, 64 * 5 + 3)), rng.standard_normal(200)
    force_split(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    pool = counting_pool(monkeypatch)
    for cpus, jobs in ((2, 1), (1, 1), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert bits(measurements._vecmat(w, mat)) == bits(w @ mat)
        assert pool.jobs == jobs


def test_under_threaded_blas_the_product_is_one_call(monkeypatch):
    # each chunk's GEMV would be threaded again, which was slower than one threaded GEMV
    rng = np.random.default_rng(18)
    mat, w = rng.standard_normal((200, 64 * 5)), rng.standard_normal(200)
    force_split(monkeypatch)
    monkeypatch.setattr(measurements, "_ONE_BLAS_THREAD", False)
    pool = counting_pool(monkeypatch)
    assert bits(measurements._vecmat(w, mat)) == bits(w @ mat)
    assert pool.jobs == 0


@pytest.mark.parametrize("env, one", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": " 1 "}, True),
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "4"}, False),
])
def test_one_blas_thread_reads_openblas_variables_in_its_order(env, one):
    assert measurements._one_blas_thread(env) is one


# OpenBLAS splits products of about 0.5M entries and more across its own threads, in other
# places than the 64-column bounds, so comparisons with one GEMV at the benchmark's payload
# size run in a child process pinned to one BLAS thread
PINNED_SCRIPT = """
import json
import os
import numpy as np
from bisparse import measurements
from bisparse.measurements import _triangle, sample_map, sample_structured
from bisparse.recovery import iht_head_tail

dense = sample_map("dense-gaussian", 100, 629, seed=11)    # 629 x 5050 packed entries
factorized = sample_map("factorized", 50, 600, p=43, seed=16)    # 600 x 1849 inner entries
w = np.random.default_rng(12).standard_normal(629)
x, _ = sample_structured(100, 2, 1, np.random.default_rng(13))
y = dense.apply(x)
assert min(dense.matrices.size, factorized.matrices.size) >= measurements.SPLIT_ENTRIES
assert measurements._ONE_BLAS_THREAD
os.sched_getaffinity = lambda pid: {0, 1}    # two usable CPUs, so the split runs on any runner

def solve():
    res = iht_head_tail(dense, y, 2, 1)
    assert res.iterations > 1
    return res.estimate.tobytes() + repr((res.iterations, res.residual_trace)).encode()

cases = {
    "dense adjoint": lambda: dense.adjoint(w).tobytes(),
    "factorized adjoint": lambda: factorized.adjoint(w[:600]).tobytes(),
    "head-tail solve": solve,
}
default = measurements.SPLIT_ENTRIES
same = {"dense adjoint is w @ payload": dense.adjoint(w).tobytes()
        == (w @ dense.matrices).take(_triangle(100)[3]).tobytes()}
for name, run in cases.items():
    measurements.SPLIT_ENTRIES = default    # two chunks
    got = run()
    measurements.SPLIT_ENTRIES = 10**12    # one GEMV
    same[name] = got == run()
print(json.dumps(same))
"""


@pytest.fixture(scope="module")
def pinned_checks():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PINNED_SCRIPT], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return json.loads(proc.stdout)


def test_at_the_benchmark_size_split_outputs_have_one_gemvs_bytes(pinned_checks):
    # the adjoint of a dense and of a factorized map, and a whole head-tail solve, split in
    # two and not split at all
    assert len(pinned_checks) == 4 and all(pinned_checks.values()), pinned_checks


def test_concurrent_adjoints_match_the_serial_bits(monkeypatch, big_map):
    # more callers than cores, switching often: each caller's chunks write only its own output
    force_split(monkeypatch, threshold=measurements.SPLIT_ENTRIES)
    ws = np.random.default_rng(14).standard_normal((6, big_map.m))
    want = [bits(big_map.adjoint(w)) for w in ws]
    got = [None] * len(ws)

    def solve(i):
        for _ in range(5):
            out = bits(big_map.adjoint(ws[i]))
            got[i] = out if got[i] in (None, out) else b"differs between calls"

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(ws))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def _child_adjoint(mp, w, want):
    same = bits(mp.adjoint(w)) == want
    # a forked child keeps only its forking thread, so a live pool thread is the child's own
    own_pool = any(t.name.startswith("bisparse-split") for t in threading.enumerate())
    os._exit(0 if same and own_pool else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
# python 3.12 on warns that forking a process with threads (the parent's pool) may deadlock
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_splits_after_its_parent_did(monkeypatch, big_map):
    force_split(monkeypatch, threshold=measurements.SPLIT_ENTRIES)    # the child inherits this
    w = np.random.default_rng(15).standard_normal(big_map.m)
    want = bits(big_map.adjoint(w))    # the parent's pool now has threads; a child has none
    child = multiprocessing.get_context("fork").Process(target=_child_adjoint,
                                                        args=(big_map, w, want))
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's split adjoint hung")
    assert child.exitcode == 0
