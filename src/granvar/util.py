"""Shared numerics and reproducibility helpers."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence, TextIO, TypeVar

import numpy as np

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
    from scipy.special import ndtri  # deferred: keeps scipy.special out of start-up

    return float(ndtri(0.5 + level / 2.0))


def format_sig(x: float, digits: int = 17) -> str:
    """Format a number with a fixed count of significant digits.

    Used for all CSV output so reruns are byte-comparable.
    """
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.{digits}g}"


#: CSV rows formatted per block; bounds the strings held while writing.
_CSV_BLOCK = 1 << 10


def write_csv_columns(
    f: TextIO, columns: Sequence[Sequence], rows: np.ndarray | None = None
) -> None:
    """Write equal-length columns to ``f`` as CSV rows, a block at a time.

    Numpy float columns are written with 17 significant digits and integer
    columns as integers, through one ``%``-template per block; other
    columns go cell by cell through :func:`_csv_cell`.  Output is identical
    to formatting row by row.

    With ``rows``, output row i is ``i`` followed by row ``rows[i]`` of
    ``columns``, and each row of ``columns`` is formatted once however
    often ``rows`` repeats it.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    n = max(lengths, default=0)
    if rows is None:
        for start in range(0, n, _CSV_BLOCK):
            f.write(_csv_block(columns, start, min(start + _CSV_BLOCK, n)))
        return
    lines = np.array(
        [line for start in range(0, n, _CSV_BLOCK)
         for line in _csv_block(columns, start, min(start + _CSV_BLOCK, n)).split("\n")[:-1]],
        dtype=object,
    )
    for start in range(0, len(rows), _CSV_BLOCK):
        block = lines[rows[start:start + _CSV_BLOCK]].tolist()
        f.write(("%d,%s\n" * len(block)) % tuple(chain.from_iterable(
            zip(range(start, start + len(block)), block)
        )))


def _csv_block(columns: Sequence[Sequence], start: int, stop: int) -> str:
    """Rows [start, stop) of ``columns`` as CSV text, one template per block."""
    fields, values = [], []
    for column in columns:
        part = column[start:stop]
        if isinstance(part, np.ndarray) and part.dtype.kind == "f":
            fields.append("%.17g")
            values.append(part.tolist())
        elif isinstance(part, np.ndarray) and part.dtype.kind in "iu":
            fields.append("%d")
            values.append(part.tolist())
        else:
            fields.append("%s")
            values.append([_csv_cell(v) for v in part])
    template = ",".join(fields) + "\n"
    return (template * (stop - start)) % tuple(chain.from_iterable(zip(*values)))


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
