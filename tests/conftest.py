"""Shared pytest plumbing.

The acceptance suite registers one verdict per criterion here; the hook
below prints them as a single summary block, one pass/fail line each, at
the end of the run.
"""
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
