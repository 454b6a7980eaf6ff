"""Shared pytest plumbing.

The acceptance suite registers one verdict per criterion here; the hook
below prints them as a single summary block, one pass/fail line each, at
the end of the run. `call_with_memory_limit` runs a call that could fill
the machine's memory in a child process whose address space is capped.
"""
import multiprocessing
import time

import pytest

_criterion_lines: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _criterion_lines[number] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_lines):
        passed, detail = _criterion_lines[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status}  {detail}")


def simd_dispatch() -> str:
    """numpy's SIMD dispatch on this host, for the failure message of a pin.

    Some bit pins were recorded under AVX-512. Without it numpy's exp, log,
    log1p, power and row sums along the last axis round differently, and
    those pins move with no change to the program (ROADMAP "Standing
    notes"). Their messages name the dispatch so a reader can tell.
    """
    from numpy._core import _multiarray_umath as umath

    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    avx512 = umath.__cpu_features__.get("AVX512_SKX", False)
    return (f"numpy SIMD dispatch: {' '.join(active) or 'baseline only'} "
            f"(AVX512_SKX {'on' if avx512 else 'off'}); the pin was "
            f"recorded under AVX-512")


#: the address space of a `call_with_memory_limit` child, in bytes
MEMORY_LIMIT = 1_500_000_000
#: how long `call_with_memory_limit` waits for its child, in seconds
CHILD_TIMEOUT = 120.0


def _limited_call(conn, fn, args) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    start = time.perf_counter()
    try:
        outcome = (fn(*args), None)
    except Exception as exc:
        outcome = (None, exc)
    conn.send((*outcome, time.perf_counter() - start))


def call_with_memory_limit(fn, *args):
    """Call fn(*args) in a spawned child whose address space is capped.

    The child sets `resource.RLIMIT_AS` to `MEMORY_LIMIT` bytes before the
    call, so a call that would fill the machine's memory raises
    `MemoryError` there instead of getting the test run killed. `fn` must
    be importable by name (a module-level function), and its arguments,
    value and exception picklable. Returns (value, error, seconds): the
    call's value and None, or None and the exception it raised, and the
    call's wall time in the child. Fails the test when the child gives no
    answer in `CHILD_TIMEOUT` seconds; skips it where the `resource` module
    is missing.
    """
    pytest.importorskip("resource")
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_limited_call, args=(sender, fn, args))
    child.start()
    sender.close()
    try:
        if not receiver.poll(CHILD_TIMEOUT):
            raise AssertionError(f"no answer from the child in {CHILD_TIMEOUT} s")
        return receiver.recv()
    except EOFError:
        raise AssertionError("the child exited without an answer") from None
    finally:
        child.kill()
        child.join()
