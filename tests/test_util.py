import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from granvar import util
from granvar.fields import SpatialField, save_field_csv
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


def assert_same_csv(got: str, want: str) -> None:
    """Equality of two CSV texts.  A failure names the first line that
    differs, instead of diffing the whole texts, so a large table fails in
    seconds."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    line = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                min(len(got_lines), len(want_lines)))
    pytest.fail(f"CSV texts differ from line {line} on ({len(got_lines)} against "
                f"{len(want_lines)} lines): {got_lines[line:line + 1]} != "
                f"{want_lines[line:line + 1]}")


def written(columns, tail=None) -> str:
    """The text :func:`write_csv_columns` writes, through the vectorised
    formatter and cell by cell, which must agree byte for byte."""
    texts = []
    for cells in (-1, 2**62):  # every call vectorised, then every call cell by cell
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(util, "_SCALAR_CELLS", cells)
            f = io.BytesIO()
            write_csv_columns(f, columns, tail)
            texts.append(f.getvalue().decode())
    assert_same_csv(texts[1], texts[0])
    return texts[0]


def indexed(columns, rows):
    """Head and tail of :func:`write_csv_columns` that write row ``rows[i]``
    of ``columns`` after the index i."""
    return [np.arange(len(rows))], (columns, rows)


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-320, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, -2.5e-7]


class TestWriteCsvColumns:
    def test_special_floats_match_cell_formatting(self):
        n = len(SPECIAL)
        columns = [
            np.array(SPECIAL), np.arange(n) - 3, np.array([2**63 - 1] * n, dtype=np.uint64),
            [f"label{i}" for i in range(n)], np.arange(n) % 2 == 0, [0.25] * n,
        ]
        assert_same_csv(written(columns), row_by_row(columns))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2600), st.integers(0, 2**32))
    def test_blocks_match_cell_formatting(self, n, seed):
        rng = np.random.default_rng(seed)
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
                   rng.integers(-10**12, 10**12, n)]
        assert_same_csv(written(columns), row_by_row(columns))

    def test_rows_prefix_the_index_and_repeat_formatted_rows(self):
        columns = [np.array([0.5, np.nan, -0.0]), np.array([3, 0, 7])]
        rows = np.array([2, 0, 0, 1, 2])
        gathered = [np.arange(len(rows))] + [c[rows] for c in columns]
        assert_same_csv(written(*indexed(columns, rows)), row_by_row(gathered))
        big = np.arange(3000) % 3
        gathered = [np.arange(3000)] + [c[big] for c in columns]
        assert_same_csv(written(*indexed(columns, big)), row_by_row(gathered))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=300),
           st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300),
           st.lists(st.integers(0, 2**64 - 1), max_size=300))
    def test_random_bit_patterns_match_cell_formatting(self, bits, signed, unsigned):
        """Floats of every exponent and sign (nan and inf included), and
        integers of the whole int64 and uint64 ranges."""
        floats = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_same_csv(written([floats]), row_by_row([floats]))
        ints = [np.array(signed, dtype=np.int64), np.array(unsigned, dtype=np.uint64)]
        for column in ints:
            assert_same_csv(written([column]), row_by_row([column]))

    def test_edge_values_match_cell_formatting(self):
        powers = [10.0**k for k in range(-6, 18)]
        near = [np.nextafter(p, toward) for p in powers + [1e-4] for toward in (0, np.inf)]
        near += [np.nextafter(v, toward) for v, toward in zip(near, [0, np.inf] * len(near))]
        ties = [m / 2**18 for m in (1, 3, 26215, 26217, 2**18 - 1)]
        floats = np.array(SPECIAL + powers + near + ties + [1e-4, 1e16 - 2, -(1e16 - 2)])
        floats = np.concatenate([floats, -floats])
        assert_same_csv(written([floats]), row_by_row([floats]))
        ints = np.array([-(2**63), 2**63 - 1, -1, 0, 9999, 10**4, 10**16, -(10**16)])
        assert_same_csv(written([ints]), row_by_row([ints]))
        top = np.array([2**64 - 1, 2**63, 10**19, 0], dtype=np.uint64)
        assert_same_csv(written([top]), row_by_row([top]))

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-6, 18, n),
                   rng.integers(-(10**12), 10**12, n), np.arange(n) % 3 == 0]
        assert_same_csv(written(columns), row_by_row(columns))
        rows = rng.integers(0, max(n, 1), n) if n else np.zeros(0, dtype=int)
        gathered = [np.arange(n)] + [c[rows] for c in columns]
        assert_same_csv(written(*indexed(columns, rows)), row_by_row(gathered))

    def test_integer_blocks_change_chunks_and_sign(self):
        """Integer columns whose base-10**4 chunk count changes at the
        8,192-row block edge (9,999 on one side, 10,000 on the other, both
        ways round), a block with a negative cell next to one without (both
        ways round), a zero chunk between digits, and uint64 values above
        2^63 beside small ones; each column alone and all in one call,
        vectorised and cell by cell."""
        n, edge = 2 * util._CSV_BLOCK + 5, util._CSV_BLOCK
        first = np.arange(n) < edge
        up = np.where(first, 9_999, 10_000)
        negative_first = np.arange(n) % 10_001
        negative_first[::1000] = 10**8 + 1  # a zero chunk between digits
        negative_first[edge - 1] = -1
        big = np.where(np.arange(n) % 3 == 0, 2**63 + 10**4, 9).astype(np.uint64)
        big[first] = np.arange(edge, dtype=np.uint64) % 10
        columns = [up, up[::-1].copy(), negative_first, negative_first[::-1].copy(), big]
        for call in [[c] for c in columns] + [columns]:
            assert_same_csv(written(call), row_by_row(call))

    def test_mixed_list_column(self):
        """A list column is split by cell type; big integers stay exact."""
        cells = ["replicates", 7, 0.1, np.float64(-2.5e-7), np.int64(-3), True,
                 np.bool_(False), np.float32(0.1), 2**64 + 1, -(2**70), float("nan"), "é,x", ""]
        columns = [cells, np.arange(len(cells))]
        assert_same_csv(written(columns), row_by_row(columns))

    def test_rows_with_repeated_and_unused_rows(self):
        columns = [np.array([0.5, 1e-5, 3.0, 12345.678]), ["a", "bb", "ccc", "dddd"],
                   np.array([1, -2, 3, 4])]
        rows = np.array([3, 3, 0, 3, 0])  # rows 1 and 2 unused
        gathered = [np.arange(len(rows))] + [[c[i] for i in rows] for c in columns]
        assert_same_csv(written(*indexed(columns, rows)), row_by_row(gathered))

    @settings(deadline=None, max_examples=40)
    @given(n=st.sampled_from([0, 1, 8191, 8192, 8193]), data=st.data())
    def test_tail_matches_gathered_cell_formatting(self, n, data):
        """Row i is head row i then tail row rows[i], for head and tail
        columns of every cell type, tail rows repeated and unused."""
        kinds = st.sampled_from(["float", "int", "uint", "text", "bool"])
        head_kinds = data.draw(st.lists(kinds, max_size=3))
        tail_kinds = data.draw(st.lists(kinds, min_size=1, max_size=3))
        k = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))

        def column(kind, length):
            if kind == "float":  # every exponent, nan and inf among them
                v = rng.integers(0, 2**64, length, dtype=np.uint64).view(np.float64)
                v[:len(SPECIAL)] = SPECIAL[:length]
                return v
            if kind == "int":
                return rng.integers(-(2**63), 2**63, length, dtype=np.int64)
            if kind == "uint":
                return rng.integers(0, 2**64, length, dtype=np.uint64)
            if kind == "bool":
                return rng.random(length) < 0.5
            return [chr(0x41 + i % 60) * (i % 5) + "é" * (i % 3) for i in
                    rng.integers(0, 10**6, length).tolist()]

        head = [column(kind, n) for kind in head_kinds]
        tail = [column(kind, k) for kind in tail_kinds]
        used = rng.choice(k, rng.integers(1, k + 1), replace=False)
        rows = used[rng.integers(0, len(used), n)]
        gathered = head + [[c[i] for i in rows] for c in tail]
        assert_same_csv(written(head, (tail, rows)), row_by_row(gathered))

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_scalar_and_vector_paths_write_the_same_bytes(self, data):
        """Mixed list columns and numpy columns, with and without a tail,
        written cell by cell and vectorised: the same bytes, and the
        reference's."""
        n = data.draw(st.integers(0, 12))
        specials = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                                    1e300, -1e300, 1e-4, 1e16])
        big = st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64,
                               2**70, -(2**63) - 1, -(2**80)])
        scalars = st.sampled_from([np.float64(-2.5e-7), np.float32(0.1), np.float16(0.5),
                                   np.int64(-(2**63)), np.int8(-5), np.uint64(2**64 - 1),
                                   np.bool_(True), np.bool_(False), np.float64(np.nan)])
        text = st.text(st.characters(blacklist_categories=("Cs",),
                                     blacklist_characters="\0\n"), max_size=6)
        cell = st.one_of(st.floats(), specials, st.integers(-(2**64), 2**64), big, scalars,
                         st.booleans(), text)

        def column(length):
            kind = data.draw(st.sampled_from(["mixed", "float", "int", "uint", "bool"]))
            if kind == "mixed":
                return data.draw(st.lists(cell, min_size=length, max_size=length))
            values = data.draw(st.lists(
                {"float": st.one_of(st.floats(), specials),
                 "int": st.integers(-(2**63), 2**63 - 1), "uint": st.integers(0, 2**64 - 1),
                 "bool": st.booleans()}[kind], min_size=length, max_size=length))
            return np.array(values, dtype={"float": np.float64, "int": np.int64,
                                           "uint": np.uint64, "bool": bool}[kind])

        head = [column(n) for _ in range(data.draw(st.integers(1, 4)))]
        assert_same_csv(written(head), row_by_row(head))
        k = data.draw(st.integers(1, 5))
        tail = [column(k) for _ in range(data.draw(st.integers(1, 3)))]
        rows = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                        dtype=np.intp)
        gathered = head + [[c[i] for i in rows] for c in tail]
        assert_same_csv(written(head, (tail, rows)), row_by_row(gathered))

    @pytest.mark.parametrize("cells", [-1, 2**62], ids=["vector", "scalar"])
    def test_both_paths_refuse_nul_and_tail_newlines(self, cells, monkeypatch):
        monkeypatch.setattr(util, "_SCALAR_CELLS", cells)
        with pytest.raises(ValueError, match=r"CSV column 1 holds a NUL character: 'a\\x00b'"):
            write_csv_columns(io.BytesIO(), [np.zeros(2), ["ok", "a\0b"]])
        with pytest.raises(ValueError, match="CSV column 0 holds a NUL"):
            write_csv_columns(io.BytesIO(), [np.zeros(1)], ([["x\0"]], np.array([0])))
        with pytest.raises(ValueError, match="newline"):
            write_csv_columns(io.BytesIO(), [np.zeros(1)], ([["a\nb"]], np.array([0])))

    def test_small_calls_take_the_scalar_path(self, monkeypatch):
        """A call of at most ``_SCALAR_CELLS`` cells makes no vectorised
        word table; one cell more does."""
        calls = []
        row_words = util._row_words
        monkeypatch.setattr(util, "_row_words", lambda *a: calls.append(1) or row_words(*a))
        rows = util._SCALAR_CELLS // 2
        written_once = io.BytesIO()
        write_csv_columns(written_once, [np.zeros(rows), np.arange(rows)])
        assert calls == []
        write_csv_columns(written_once, [np.zeros(rows + 1), np.arange(rows + 1)])
        assert calls == [1]

    def test_text_with_nul_is_refused(self):
        with pytest.raises(ValueError, match="CSV column 1 holds a NUL"):
            written([np.zeros(2), ["ok", "a\0b"]])

    def test_rows_text_with_newline_is_refused(self):
        """A newline inside a text cell would shift every gathered row."""
        with pytest.raises(ValueError, match="newline"):
            written(*indexed([["a\nb", "c"]], np.array([1, 0])))

    def test_zero_radius_field_takes_the_vector_path(self, tmp_path, monkeypatch):
        """1e5 rows of radius 0: zeros are in the formatter's exact range,
        so only the coordinates below 1e-4 fall back to per-value
        formatting."""
        rng = np.random.default_rng(3)
        n = 100_000
        field = SpatialField(1.0, 1.0, rng.random(n), rng.random(n), np.zeros(n),
                             rng.integers(0, 3, n))
        fallback = []
        printf_words = util._printf_words
        monkeypatch.setattr(util, "_printf_words", lambda x, w: fallback.append(x) or
                            printf_words(x, w))
        save_field_csv(field, tmp_path / "field.csv")
        tiny = sum(np.count_nonzero((c > 0) & (c < 1e-4)) for c in (field.x, field.y))
        assert 0 < tiny == sum(len(x) for x in fallback)
        lines = (tmp_path / "field.csv").read_text().splitlines()
        columns = [field.x, field.y, field.radius, field.class_id]
        assert_same_csv("\n".join(lines[1:]) + "\n", row_by_row(columns))

    @settings(deadline=None, max_examples=80)
    @given(j=st.integers(-4, 15), n=st.integers(1, 400), seed=st.integers(0, 2**32),
           negate=st.booleans(),
           extras=st.lists(st.sampled_from([3e-5, -7.5e-9, 5e-324, 0.0, -0.0, np.nan]),
                           max_size=4))
    def test_blocks_of_one_layout_match_cell_formatting(self, j, n, seed, negate, extras):
        """Values of one magnitude, so mostly of one integer-chunk count,
        with a few values printed by printf, zeros of both signs and nan
        among them."""
        rng = np.random.default_rng(seed)
        floats = rng.random(n) * 10.0**j
        if negate:
            floats[rng.random(n) < 0.5] *= -1
        floats[rng.integers(0, n, len(extras))] = extras
        assert_same_csv(written([floats]), row_by_row([floats]))

    @staticmethod
    def frame_calls(monkeypatch) -> list[int]:
        """The count of each call of ``util._frame_words``, recorded."""
        counts = []
        frame_words = util._frame_words
        monkeypatch.setattr(util, "_frame_words", lambda d, e, count, out:
                            counts.append(count) or frame_words(d, e, count, out))
        return counts

    def test_all_five_counts_in_one_block(self, monkeypatch):
        """Values with 0 to 4 integer chunks: the most frequent count is
        laid out over the block, each other one over its own cells."""
        rng = np.random.default_rng(11)
        floats = rng.random(700) * 10.0 ** rng.integers(-3, 16, 700)
        floats[::3] *= -1
        counts = self.frame_calls(monkeypatch)
        assert_same_csv(written([floats]), row_by_row([floats]))
        assert sorted(set(counts)) == [0, 1, 2, 3, 4]
        assert len(counts) == 5  # one vectorised call lays out each count once

    @pytest.mark.parametrize("m", range(-4, 16))
    def test_neighbours_of_powers_of_ten_in_blocks_of_one_layout(self, m, monkeypatch):
        """The largest double below 10**m and the smallest above it, the
        values whose exponent the range check of the significand corrects,
        each among values of its own exponent and so laid out in one
        piece."""
        rng = np.random.default_rng(m + 100)
        below, above = np.nextafter(10.0**m, 0.0), np.nextafter(10.0**m, np.inf)
        blocks = [np.append((1.0 + 9.0 * rng.random(300)) * 10.0 ** (m - 1), below),
                  np.append((1.0 + 9.0 * rng.random(300)) * 10.0**m, [10.0**m, above])]
        for floats in blocks:
            rng.shuffle(floats)
            for values in (floats, -floats):
                counts = self.frame_calls(monkeypatch)
                assert_same_csv(written([values]), row_by_row([values]))
                assert len(counts) == 1

    def test_field_row_width(self, tmp_path, monkeypatch):
        """A block of field rows with a coordinate below 1e-4 is 16 words
        a row: six for each coordinate, each followed by a comma word, and
        the tail ``0.002,k`` with its newline in two.  The printf cell does
        not split the coordinates' one layout."""
        rng = np.random.default_rng(8)
        n = 8192
        field = SpatialField(1.0, 1.0, rng.random(n), rng.random(n), np.full(n, 0.002),
                             rng.integers(0, 2, n))
        field.x[17] = 3.5e-5
        widths = []
        packed = util._packed
        monkeypatch.setattr(util, "_packed", lambda words: widths.append(words.shape[1]) or
                            packed(words))
        counts = self.frame_calls(monkeypatch)
        save_field_csv(field, tmp_path / "field.csv")
        assert widths == [16] and counts == [0]
        lines = (tmp_path / "field.csv").read_text().splitlines()
        columns = [field.x, field.y, field.radius, field.class_id]
        assert_same_csv("\n".join(lines[1:]) + "\n", row_by_row(columns))

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            written([np.zeros(2), np.zeros(3)])


def test_normal_half_width_matches_norm_ppf():
    for level in np.linspace(0.01, 0.999, 200).tolist() + [0.9, 0.95, 0.99]:
        assert normal_half_width(level) == float(sstats.norm.ppf(0.5 + level / 2.0))


def around(value):
    """``value`` and the floats just below and above it."""
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


class TestWrapPeriodic:
    @settings(deadline=None, max_examples=300)
    @given(period=st.one_of(st.sampled_from([1.0, 2.5, 0.7, 3.0e-3, 1.0e4]),
                            st.floats(1e-300, 1e300)),
           data=st.data())
    def test_bits_equal_np_mod(self, period, data):
        """Bit for bit np.mod, in the shifted range and beyond it: -0.0, the
        range's ends and their neighbours, tiny negatives whose v + period
        rounds to the period, and values out of range, infinite or NaN."""
        edges = [0.0, -0.0, 5e-324, -5e-324, -1e-300, -0.25 * float(np.spacing(period)),
                 *around(period), *around(-period), *around(2.0 * period),
                 *around(-2.0 * period), 3.5 * period, -7.25 * period]
        value = st.one_of(st.sampled_from(edges), st.floats(-period, 2.0 * period),
                          st.floats(allow_nan=True, allow_infinity=True))
        values = np.array(data.draw(st.lists(value, max_size=40)), dtype=float)
        with np.errstate(invalid="ignore"):
            got = util.wrap_periodic(values, period)
            want = np.mod(values, period)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_tiny_negative_wraps_to_the_period(self):
        """np.mod's own rounding: -1e-20 + 1.0 is 1.0, not a value below it."""
        got = util.wrap_periodic(np.array([-1e-20, -0.0, -1.0, 1.0, 1.5, -0.5]), 1.0)
        assert got.tolist() == [1.0, 0.0, 0.0, 0.0, 0.5, 0.5]
        assert not np.signbit(got).any()
