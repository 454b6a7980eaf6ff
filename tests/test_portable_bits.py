"""Exact outputs keep their bits under every OpenBLAS kernel.

numpy's OpenBLAS, built with DYNAMIC_ARCH, picks its kernels by CPU, and
they sum in different orders, so a BLAS product's last bits depend on the
host. The exact paths sum without BLAS, so the pgf values and the `analyze`
and `validate` outputs must read the same bits under any kernel. Each child
process forces one kernel through OPENBLAS_CORETYPE, set on the child only.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mginfpolling
from mginfpolling.analytic import pgf_eval
from mginfpolling.cli import main
from test_analytic import ATOMIC_PGF_PINS, atomic_pgf_system

TESTS = Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "bench" / "workloads"
KERNELS = ("SkylakeX", "Haswell", "Prescott")

CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from test_portable_bits import blas_digest, exact_digest
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps([exact_digest(tmp), blas_digest()]))
"""


def exact_digest(tmp) -> str:
    """One sha256 over the 30 pinned pgf points, then `analyze`, `sweep`
    and a short seeded `validate` (stdout, CSV and return code) on the
    atomic-pgf and general-wide workloads."""
    digest = hashlib.sha256()
    system = atomic_pgf_system()
    for i, z, _ in ATOMIC_PGF_PINS:
        digest.update(pgf_eval(system, i, z).hex().encode())
    out = Path(tmp) / "out.csv"
    for name in ("atomic-pgf", "general-wide"):
        for argv in (["analyze"], ["sweep"],
                     ["validate", "--seed", "7", "--cycles", "200"]):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main([*argv, "--config", str(WORKLOADS / f"{name}.json"),
                           "--out", str(out)])
            digest.update(f"{rc}\0{stdout.getvalue()}\0".encode())
            digest.update(out.read_bytes())
    return digest.hexdigest()


def blas_digest() -> str:
    """The bits of BLAS matrix-vector products, which follow the kernel."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((64, 37))
    return hashlib.sha256((rows @ rng.standard_normal(37)).tobytes()
                          ).hexdigest()


def test_exact_outputs_keep_their_bits_under_every_kernel(tmp_path):
    src = str(Path(mginfpolling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "POLLING_NUM_THREADS": "1"}
    exact, blas = {}, set()
    for kernel in KERNELS:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(TESTS)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**env, "OPENBLAS_CORETYPE": kernel})
        assert proc.returncode == 0, proc.stderr
        exact[kernel], child_blas = json.loads(proc.stdout.splitlines()[-1])
        blas.add(child_blas)
    if len(blas) == 1:
        pytest.skip("this numpy's BLAS gives one kernel's bits under "
                    f"every OPENBLAS_CORETYPE in {KERNELS}")
    assert exact == dict.fromkeys(KERNELS, exact_digest(tmp_path))
