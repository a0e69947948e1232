"""Output checks of the benchmark, computed apart from the program.

Every check returns a list of violation messages; an empty list means
the output passed. The checks never compare against a stored copy of
earlier output: each one tests a property the modelled hardware or the
search method must have, or compares two independent computations.
"""

from __future__ import annotations

#: Tolerance of the value check, the same as the repo's differential
#: harness (``rtol = atol = 1e-5``).
VALUE_TOLERANCE = 1e-5


def check_dram_bound(label: str, cycles: int, total_dram_bytes: int,
                     bytes_per_cycle: float) -> list[str]:
    """A run can finish no sooner than its DRAM traffic can stream.

    ``cycles >= total DRAM bytes / (DRAM bytes per cycle)``. The bound
    is tight on bandwidth-bound designs, so a dropped or double-counted
    transfer breaks it.
    """
    if bytes_per_cycle <= 0:
        return [f"{label}: DRAM bytes per cycle is {bytes_per_cycle}"]
    if cycles <= 0:
        return [f"{label}: {cycles} cycles"]
    if cycles * bytes_per_cycle < total_dram_bytes:
        bound = total_dram_bytes / bytes_per_cycle
        return [f"{label}: {cycles} cycles below the DRAM bound of "
                f"{bound:.1f} ({total_dram_bytes} B at "
                f"{bytes_per_cycle:g} B/cycle)"]
    return []


def check_busy(label: str, cycles: int,
               unit_busy_cycles: dict[str, int]) -> list[str]:
    """No unit can be busy for longer than the whole run."""
    return [f"{label}: unit {unit} busy {busy} > {cycles} cycles"
            for unit, busy in sorted(unit_busy_cycles.items())
            if busy > cycles]


def check_values(label: str, actual, expected,
                 tolerance: float = VALUE_TOLERANCE) -> list[str]:
    """Element-wise ``|a - e| <= tol + tol * |e|`` over two matrices."""
    import numpy as np

    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return [f"{label}: output shape {actual.shape} != reference "
                f"shape {expected.shape}"]
    if not np.all(np.isfinite(actual)):
        return [f"{label}: output holds non-finite values"]
    error = np.abs(actual - expected)
    limit = tolerance + tolerance * np.abs(expected)
    bad = int(np.count_nonzero(error > limit))
    if bad:
        return [f"{label}: {bad} values differ from the reference by "
                f"more than {tolerance:g} (max error "
                f"{float(error.max()):.3g})"]
    return []


def check_same(label: str, what: str, got, want) -> list[str]:
    """Two independent computations of one quantity must agree."""
    if got != want:
        return [f"{label}: {what} {got!r} != {want!r}"]
    return []


def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_labels(rows: dict[str, tuple[float, ...]]) -> set[str]:
    """Labels of the rows no other row dominates (minimising all)."""
    return {label for label, vector in rows.items()
            if not any(_dominates(other, vector)
                       for other_label, other in rows.items()
                       if other_label != label)}


def check_frontier(rows: dict[str, tuple[float, ...]],
                   reported: list[str]) -> list[str]:
    """The reported frontier must equal the one recomputed from rows.

    ``rows`` maps each feasible candidate's label to its
    ``(cycles, area, energy)`` vector.
    """
    expected = pareto_labels(rows)
    got = set(reported)
    problems = []
    unknown = sorted(got - set(rows))
    if unknown:
        problems.append(f"frontier names unknown candidates {unknown}")
    dominated = sorted(got & (set(rows) - expected))
    if dominated:
        problems.append(f"frontier holds dominated candidates "
                        f"{dominated}")
    missing = sorted(expected - got)
    if missing:
        problems.append(f"frontier misses non-dominated candidates "
                        f"{missing}")
    if len(reported) != len(got):
        problems.append("frontier lists a candidate twice")
    return problems
