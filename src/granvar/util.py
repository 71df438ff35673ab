"""Shared numerics and reproducibility helpers."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TextIO, TypeVar

import numpy as np
from scipy import stats as sstats

T = TypeVar("T")
U = TypeVar("U")


def derived_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for substream (master_seed, i0, i1, ...).

    Substreams are derived from the index tuple, not from draw order, so
    results do not depend on scheduling or worker count.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, *indices)))


def derived_seeds(master_seed: int, *indices: int, count: int = 1) -> list[int]:
    """``count`` integer seeds for substream (master_seed, i0, i1, ...).

    Like :func:`derived_rng`, the seeds depend only on the index tuple; a
    stage that hands seeds on to other functions takes them from here.
    """
    ss = np.random.SeedSequence((master_seed, *indices))
    return [int(x) for x in ss.generate_state(count, dtype=np.uint64)]


@lru_cache(maxsize=8)
def normal_half_width(level: float) -> float:
    """Half-width, in standard errors, of a two-sided normal confidence
    interval at ``level``: the standard normal quantile of 0.5 + level/2."""
    return float(sstats.norm.ppf(0.5 + level / 2.0))


def fsum(terms: Iterable[float]) -> float:
    """Compensated (exactly rounded) sum."""
    return math.fsum(terms)


def format_sig(x: float, digits: int = 17) -> str:
    """Format a number with a fixed count of significant digits.

    Used for all CSV output so reruns are byte-comparable.
    """
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.{digits}g}"


#: CSV rows formatted per block; bounds the strings held while writing.
_CSV_BLOCK = 1 << 10


def write_csv_columns(f: TextIO, columns: Sequence[Sequence]) -> None:
    """Write equal-length columns to ``f`` as CSV rows, a block at a time.

    Numpy float columns are written with 17 significant digits and integer
    columns as integers; other columns go cell by cell through
    :func:`_csv_cell`.  Output is identical to formatting row by row.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    for start in range(0, max(lengths, default=0), _CSV_BLOCK):
        cells = [_csv_column(c[start:start + _CSV_BLOCK]) for c in columns]
        f.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _csv_column(values: Sequence) -> list[str]:
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return [f"{v:.17g}" for v in values.tolist()]
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return [_csv_cell(v) for v in values]


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_sig(float(v))


def round_sig(x: float, digits: int) -> float:
    """Round to ``digits`` significant figures (half away from zero)."""
    if x == 0 or not math.isfinite(x):
        return x
    exponent = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (exponent - digits + 1)
    return math.copysign(math.floor(abs(x) / scale + 0.5) * scale, x)


def sig_figure_ulp(x: float, digits: int) -> float:
    """One unit in the last of ``digits`` significant figures of ``x``."""
    if x == 0:
        return 10.0 ** (1 - digits)
    return 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)


def ordered_map(
    fn: Callable[[T], U], items: Sequence[T], threads: int = 1
) -> list[U]:
    """Map ``fn`` over ``items`` preserving order.

    With ``threads > 1`` items run on a thread pool; results are collected
    in input order, so output is identical to the serial run as long as
    ``fn`` draws randomness only from per-item derived streams.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
