import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from granvar.util import format_sig, normal_half_width, write_csv_columns


def row_by_row(columns) -> str:
    """Reference CSV text: every cell formatted on its own."""
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return format_sig(v.item() if isinstance(v, np.generic) else v)
    return "".join(",".join(cell(c[i]) for c in columns) + "\n"
                   for i in range(len(columns[0])))


def written(columns, rows=None) -> str:
    f = io.StringIO()
    write_csv_columns(f, columns, rows)
    return f.getvalue()


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-320, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, -2.5e-7]


class TestWriteCsvColumns:
    def test_special_floats_match_cell_formatting(self):
        n = len(SPECIAL)
        columns = [
            np.array(SPECIAL), np.arange(n) - 3, np.array([2**63 - 1] * n, dtype=np.uint64),
            [f"label{i}" for i in range(n)], np.arange(n) % 2 == 0, [0.25] * n,
        ]
        assert written(columns) == row_by_row(columns)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2600), st.integers(0, 2**32))
    def test_blocks_match_cell_formatting(self, n, seed):
        rng = np.random.default_rng(seed)
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
                   rng.integers(-10**12, 10**12, n)]
        assert written(columns) == row_by_row(columns)

    def test_rows_prefix_the_index_and_repeat_formatted_rows(self):
        columns = [np.array([0.5, np.nan, -0.0]), np.array([3, 0, 7])]
        rows = np.array([2, 0, 0, 1, 2])
        gathered = [np.arange(len(rows))] + [c[rows] for c in columns]
        assert written(columns, rows) == row_by_row(gathered)
        big = np.arange(3000) % 3
        gathered = [np.arange(3000)] + [c[big] for c in columns]
        assert written(columns, big) == row_by_row(gathered)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            written([np.zeros(2), np.zeros(3)])


def test_normal_half_width_matches_norm_ppf():
    for level in np.linspace(0.01, 0.999, 200).tolist() + [0.9, 0.95, 0.99]:
        assert normal_half_width(level) == float(sstats.norm.ppf(0.5 + level / 2.0))
