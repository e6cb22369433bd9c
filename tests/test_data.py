"""Tests for CSV ingestion, ID remapping, normalization, and splitting."""

import codecs
import os
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bpmf import data as data_module
from bpmf.data import build_dataset, load_ratings, split_dataset
from bpmf.errors import BpmfError, DataFormatError
from bpmf.model import RatingScale, denormalize_rating
from bpmf.synthetic import synthesize_ratings

from conftest import make_dataset

HEADER = "userId,movieId,rating,timestamp\n"

SAMPLE_ROWS = (
    "1,1,4,964982703\n"
    "1,3,4,964981247\n"
    "1,6,4,964982224\n"
    "1,47,5,964983815\n"
    "1,50,5,964982931\n"
)


def load_text(text):
    """load_ratings on a file holding ``text``, line ends as given."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ratings.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return load_ratings(path)


def columns(*rows):
    """(user_ids, movie_ids, ratings) arrays from (user, movie, rating) rows."""
    users, movies, ratings = zip(*rows)
    return np.array(users), np.array(movies), np.array(ratings, dtype=float)


class TestLoadRatings:
    def test_sample_rows(self):
        (users, movies, ratings), scale = load_text(HEADER + SAMPLE_ROWS)
        assert ratings.size == 5
        assert (users[0], movies[0], ratings[0]) == (1, 1, 4.0)
        assert (users[3], movies[3], ratings[3]) == (1, 47, 5.0)
        assert (users.dtype, movies.dtype, ratings.dtype) == (np.int64, np.int64, np.float64)
        assert scale == RatingScale(5, r_min=1.0)

    def test_header_only(self):
        (users, movies, ratings), _ = load_text(HEADER)
        assert users.size == movies.size == ratings.size == 0

    def test_missing_header(self):
        with pytest.raises(DataFormatError):
            load_text("a,b,c,d\n1,1,4,0\n")

    def test_empty_file(self):
        with pytest.raises(DataFormatError):
            load_text("")

    def test_malformed_field_names_line(self):
        text = HEADER + "1,1,4,964982703\n1,3,abc,964981247\n"
        with pytest.raises(DataFormatError) as err:
            load_text(text)
        assert err.value.line == 3
        assert "3" in str(err.value)

    def test_rating_out_of_range(self):
        with pytest.raises(DataFormatError) as err:
            load_text(HEADER + "1,1,11,0\n")
        assert err.value.line == 2
        with pytest.raises(DataFormatError):
            load_text(HEADER + "1,1,0,0\n")

    def test_duplicate_pair(self):
        # the quoted field sends the second file to the row loop
        for rows in ("1,1,4,0\n1,1,3,1\n", '1,1,4,0\n1,"1",3,1\n'):
            with pytest.raises(DataFormatError) as err:
                load_text(HEADER + rows)
            assert err.value.line == 3

    def test_half_star_scale_detection(self):
        (_, _, ratings), scale = load_text(HEADER + "1,1,3.5,0\n1,2,5,0\n")
        assert scale == RatingScale(5, r_min=0.5)
        assert ratings[0] == 3.5

    def test_integer_scale_minimum_two(self):
        _, scale = load_text(HEADER + "1,1,1,0\n")
        assert scale.r_max == 2

    def test_crlf_line_endings(self):
        (_, _, ratings), _ = load_text(HEADER.strip() + "\r\n1,1,4,0\r\n1,2,5,0\r\n")
        assert ratings.size == 2

    def test_full_size_file(self, ratings_csv_path):
        (_, _, ratings), scale = load_ratings(ratings_csv_path)
        assert ratings.size == 100_836
        assert scale.r_max == 5

    def test_rating_off_the_half_star_grid(self):
        # 0.3 in an integer-star file used to fail later, inside RatingDataset
        with pytest.raises(DataFormatError) as err:
            load_text(HEADER + "1,1,4,0\n1,2,0.3,0\n")
        assert err.value.line == 3
        with pytest.raises(DataFormatError) as err:
            load_text(HEADER + "1,1,3.5,0\n1,2,4,0\n2,1,3.25,0\n")
        assert err.value.line == 4
        assert "0.5" in str(err.value)

    def test_id_outside_int64(self):
        with pytest.raises(DataFormatError) as err:
            load_text(HEADER + "1,1,4,0\n9223372036854775808,2,4,0\n")
        assert err.value.line == 3
        (users, _, _), _ = load_text(HEADER + "9223372036854775807,1,4,0\n")
        assert users[0] == 2**63 - 1

    def test_csv_error_names_line(self):
        with pytest.raises(DataFormatError) as err:
            load_text(HEADER + "1,1,4,0\n1,2,4," + "9" * 200_000 + "\n")
        assert err.value.line == 3

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_bytes(HEADER.encode() + b"1,1,4,0\n1,2,4,\xff\n")
        with pytest.raises(DataFormatError) as err:
            load_ratings(path)
        assert err.value.line == 3

    def test_byte_order_mark_in_file(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_bytes(codecs.BOM_UTF8 + (HEADER + SAMPLE_ROWS).encode())
        (users, _, _), _ = load_ratings(path)
        assert users.tolist() == [1] * 5


def reference_load(text):
    """The row loop alone: (columns, scale) or DataFormatError."""
    columns = data_module._parse_rows(text)
    return columns, data_module._detect_scale(columns[2])


def reference_build(columns, scale):
    """The dict-loop remap and per-rating normalization ingest used to run."""
    user_map, item_map = {}, {}
    ii = [user_map.setdefault(u, len(user_map)) for u in columns[0].tolist()]
    jj = [item_map.setdefault(m, len(item_map)) for m in columns[1].tolist()]
    rr = [(r - scale.r_min) / scale.span for r in columns[2].tolist()]
    return ii, jj, rr, user_map, item_map


def assert_same_columns(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_same_dataset(columns, scale):
    """build_dataset output equals the reference remap bit for bit."""
    data, (user_ids, movie_ids) = build_dataset(columns, scale)
    ii, jj, rr, user_map, item_map = reference_build(columns, scale)
    assert data.user_idx.tolist() == ii
    assert data.item_idx.tolist() == jj
    assert data.rating.tobytes() == np.array(rr).tobytes()
    assert user_ids.dtype == movie_ids.dtype == np.int64
    assert user_ids.tolist() == list(user_map)
    assert movie_ids.tolist() == list(item_map)
    np.testing.assert_array_equal(user_ids[data.user_idx], columns[0])
    np.testing.assert_array_equal(movie_ids[data.item_idx], columns[1])


@pytest.fixture(scope="module")
def whole_star_csv(tmp_path_factory):
    users, movies, ratings = synthesize_ratings(300, 800, 30_000, seed=3)
    stars = np.clip(np.round(ratings), 1, 5).astype(np.int64)
    path = tmp_path_factory.mktemp("stars") / "ratings.csv"
    with open(path, "w") as fh:
        fh.write(HEADER)
        fh.writelines(f"{u},{m},{r},0\n" for u, m, r in zip(users, movies, stars))
    return path


class TestColumnarIngest:
    @pytest.mark.parametrize("which", ["surrogate", "whole_star"])
    def test_matches_row_loop_reference(self, which, ratings_csv_path, whole_star_csv):
        path = ratings_csv_path if which == "surrogate" else whole_star_csv
        columns, scale = load_ratings(path)
        expected_columns, expected_scale = reference_load(path.read_text(encoding="utf-8-sig"))
        assert_same_columns(columns, expected_columns)
        assert scale == expected_scale
        assert scale.r_min == (0.5 if which == "surrogate" else 1.0)
        assert_same_dataset(columns, scale)

    def test_surrogate_skips_row_loop(self, ratings_csv_path, monkeypatch):
        def row_loop(text):
            raise AssertionError("the columnar parser fell back to the row loop")

        monkeypatch.setattr(data_module, "_parse_rows", row_loop)
        (_, _, ratings), _ = load_ratings(ratings_csv_path)
        assert ratings.size == 100_836

    def test_regular_file_is_read_by_path(self, whole_star_csv, monkeypatch):
        sources = spy_loadtxt(monkeypatch)
        monkeypatch.chdir(whole_star_csv.parent)
        columns, scale = load_ratings(whole_star_csv.name)
        assert sources == [os.path.join(os.getcwd(), whole_star_csv.name)]
        assert_same_columns(columns, reference_load(whole_star_csv.read_text())[0])

    @pytest.mark.parametrize("change", ["rewritten", "removed"])
    def test_file_changed_after_the_read_is_parsed_from_memory(self, change, tmp_path,
                                                               monkeypatch):
        path = tmp_path / "ratings.csv"
        path.write_text(HEADER + SAMPLE_ROWS)
        if change == "rewritten":
            # the same size, and a stat that differs even within one timestamp tick
            def touch(name):
                path.write_text(HEADER + SAMPLE_ROWS.replace(",5,", ",2,"))
            real_stat = os.stat

            def stat(name, *args, **kwargs):
                st = real_stat(name, *args, **kwargs)
                return mock.Mock(wraps=st, st_dev=st.st_dev, st_ino=st.st_ino,
                                 st_size=st.st_size, st_mtime_ns=st.st_mtime_ns + 1)

            monkeypatch.setattr(os, "stat", stat)
        else:
            def touch(name):
                path.unlink()
        sources = spy_loadtxt(monkeypatch, touch)
        columns, _ = load_ratings(path)
        assert sources[0] == str(path) and not isinstance(sources[1], str)
        assert_same_columns(columns, reference_load(HEADER + SAMPLE_ROWS)[0])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "ratings.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(HEADER + SAMPLE_ROWS,))
        writer.start()

        def reopen(name):
            raise AssertionError("numpy would open the pipe a second time")

        sources = spy_loadtxt(monkeypatch, reopen)
        try:
            columns, _ = load_ratings(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive() and len(sources) == 1
        assert_same_columns(columns, reference_load(HEADER + SAMPLE_ROWS)[0])

    def test_compressed_name_is_parsed_from_memory(self, tmp_path, monkeypatch):
        # numpy would open this name through gzip
        path = tmp_path / "ratings.csv.gz"
        path.write_text(HEADER + SAMPLE_ROWS)
        sources = spy_loadtxt(monkeypatch)
        columns, _ = load_ratings(path)
        assert len(sources) == 1 and not isinstance(sources[0], str)
        assert_same_columns(columns, reference_load(HEADER + SAMPLE_ROWS)[0])


def spy_loadtxt(monkeypatch, before_path_read=None):
    """Record every source np.loadtxt gets; call ``before_path_read`` with a
    path before numpy opens it."""
    sources, real = [], np.loadtxt

    def loadtxt(source, *args, **kwargs):
        sources.append(source)
        if isinstance(source, str) and before_path_read is not None:
            before_path_read(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return sources


def _number(value):
    return st.sampled_from([str(value), f"{value:03d}", f"{value}.0", f"+{value}",
                            f" {value}", f"{value}_0", f'"{value}"'])


_ID = st.integers(1, 20)
_VALID_RATING = st.sampled_from(["4", "3.5", "0.5", "5.0", ".5", "5.", "004.50", "10"])
_ODD_RATING = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "0", "-1", "11",
                               "3.25", "0.3", "4e0", '"4"', " 4", "4_0", ""])
_VALID_ROW = st.builds(lambda u, m, r: f"{u},{m},{r},964982703", _ID, _ID, _VALID_RATING)
_ODD_LINE = st.one_of(
    st.sampled_from(["", " ", "\t", "\ufeff1,2,4,0"]),
    st.sampled_from(["1", "1,2", "1,2,", ",,,", "1,2,4", "1,2,4,0,extra,more"]),
    st.sampled_from(['"1",2,4,0', '1,2,4,"a,b"', '1,2,4,"x\ny"', '1,2,4,"x\n3,4,5,"']),
    st.sampled_from(["1.0,2,4,0", "-1,2,4,0", "99999999999999999999,1,4,0"]),
    st.builds(lambda u, m, r: f"{u},{m},{r},0", _number(1), _number(2), _VALID_RATING),
    st.builds(lambda u, m, r: f"{u},{m},{r}", _ID, _ID, _ODD_RATING),
)


def _join(lines, ending, trailing):
    text = "".join(line + ending for line in lines)
    return text if trailing else text.rstrip("\r\n")


def _insert(lines, odd):
    lines = list(lines)
    for line, ending, position in odd:
        lines.insert(position, line + ending)
    return lines


# clean bodies: valid rows and blank lines under one line ending, the
# shape of real files; mixed bodies insert one or two odd lines, each
# with its own ending (a lone CR among them)
_CLEAN_LINES = st.lists(st.one_of(_VALID_ROW, _VALID_ROW, _VALID_ROW, st.just("")), max_size=10)
_CLEAN_BODY = st.builds(_join, _CLEAN_LINES, st.sampled_from(["\n", "\r\n"]), st.booleans())
_MIXED_BODY = st.builds(
    lambda lines, odd, ending, trailing: _join(_insert(lines, odd), ending, trailing),
    _CLEAN_LINES,
    st.lists(st.tuples(_ODD_LINE, st.sampled_from(["", "\r"]), st.integers(0, 10)),
             min_size=1, max_size=2),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ratings.csv"


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.one_of(_CLEAN_BODY, _MIXED_BODY), bom=st.booleans(), crlf_header=st.booleans())
def test_columnar_parse_matches_row_loop(scratch_csv, body, bom, crlf_header):
    text = HEADER.replace("\n", "\r\n" if crlf_header else "\n") + body
    scratch_csv.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode())
    fast = data_module._parse_columns(text.encode())
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        by_path = data_module._parse_columns(text.encode(), str(scratch_csv),
                                             os.stat(scratch_csv))
    # numpy read the file itself: no quiet fall-back to the bytes in memory
    assert all(isinstance(call.args[0], str) for call in loadtxt.call_args_list)
    assert (by_path is None) == (fast is None)
    if fast is not None:
        assert_same_columns(by_path, fast)
    try:
        expected = reference_load(text)
    except DataFormatError as exc:
        event("rejected")
        # whatever the row loop rejects, the columnar parser rejects too
        assert fast is None
        with pytest.raises(DataFormatError) as err:
            load_ratings(scratch_csv)
        assert err.value.line == exc.line
        return
    event("accepted by the row loop only" if fast is None else "accepted by both parsers")
    if fast is not None:
        assert_same_columns(fast, expected[0])
    columns, scale = load_ratings(scratch_csv)
    assert_same_columns(columns, expected[0])
    assert scale == expected[1]
    if expected[0][2].size:
        assert_same_dataset(*expected)


class TestBuildDataset:
    def test_full_size_counts(self, full_dataset):
        data, (user_ids, movie_ids), _ = full_dataset
        assert data.n_users == 610
        assert data.n_items == 9_724
        assert data.n_ratings == 100_836
        assert user_ids.size == 610
        assert movie_ids.size == 9_724

    def test_single_rating(self):
        data, (user_ids, movie_ids) = build_dataset(columns((7, 42, 5.0)), RatingScale(5))
        assert (data.n_users, data.n_items) == (1, 1)
        assert (data.user_idx.tolist(), data.item_idx.tolist(), data.rating.tolist()) == (
            [0], [0], [1.0])
        assert user_ids.tolist() == [7]
        assert movie_ids.tolist() == [42]

    def test_two_users_share_one_movie(self):
        data, (user_ids, _) = build_dataset(columns((5, 9, 3.0), (2, 9, 4.0)), RatingScale(5))
        assert data.n_items == 1
        assert sorted(data.user_idx.tolist()) == [0, 1]
        assert user_ids.tolist() == [5, 2]

    def test_first_appearance_order(self):
        raw = columns((30, 7, 1.0), (10, 5, 2.0), (30, 5, 3.0))
        data, (user_ids, movie_ids) = build_dataset(raw, RatingScale(5))
        assert (data.user_idx.tolist(), data.item_idx.tolist()) == ([0, 1, 0], [0, 1, 1])
        assert user_ids.tolist() == [30, 10]
        assert movie_ids.tolist() == [7, 5]

    def test_empty_input_errors(self):
        with pytest.raises(BpmfError):
            build_dataset(([], [], []), RatingScale(5))

    @pytest.mark.parametrize(
        "rows,scale",
        [
            (HEADER + "1,1,1,0\n1,2,3,0\n1,3,5,0\n2,1,4,0\n", RatingScale(5)),
            (HEADER + "1,1,0.5,0\n1,2,3.5,0\n1,3,5,0\n", RatingScale(5, r_min=0.5)),
        ],
    )
    def test_round_trip_exact(self, rows, scale):
        raw, detected = load_text(rows)
        assert detected == scale
        data, _ = build_dataset(raw, detected)
        recovered = denormalize_rating(data.rating, detected)
        np.testing.assert_allclose(recovered, raw[2], atol=1e-12)

    def test_id_maps_are_bijections(self, full_dataset, ratings_csv_path):
        data, (user_ids, movie_ids), _ = full_dataset
        (users, movies, _), _ = load_ratings(ratings_csv_path)
        # one distinct ID per row, and each rating's row maps back to its own ID
        assert np.unique(user_ids).size == user_ids.size == data.n_users
        assert np.unique(movie_ids).size == movie_ids.size == data.n_items
        np.testing.assert_array_equal(user_ids[data.user_idx], users)
        np.testing.assert_array_equal(movie_ids[data.item_idx], movies)

    @pytest.mark.parametrize("ids", [
        [3, 1, 3, 2, 1],  # dense: the lookup table
        [10**12, 5, 10**12, -7, 5],  # sparse: packed keys
        [2**63 - 1, -(2**63), 2**63 - 1, 0, -(2**63)],  # too wide to pack: stable argsort
    ], ids=["dense", "sparse", "int64-edge"])
    def test_id_arrays_recover_the_columns(self, tmp_path, ids):
        path = tmp_path / "ratings.csv"
        path.write_text(HEADER + "".join(f"{u},{m},3,0\n" for u, m in zip(ids, ids[::-1])))
        raw, scale = load_ratings(path)
        data, (user_ids, movie_ids) = build_dataset(raw, scale)
        assert user_ids.dtype == movie_ids.dtype == np.int64
        assert user_ids.tolist() == list(dict.fromkeys(ids))
        np.testing.assert_array_equal(user_ids[data.user_idx], raw[0])
        np.testing.assert_array_equal(movie_ids[data.item_idx], raw[1])


def unique_first_appearance(ids):
    """The np.unique-based remap, kept as the reference for _first_appearance."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


_RNG = np.random.default_rng(7)
_INT64 = np.iinfo(np.int64)


class TestFirstAppearance:
    # many repeats in each case, so a remap that lost the first appearance
    # of an ID within its group would misorder the distinct IDs
    @pytest.mark.parametrize("ids,fallback", [
        (_RNG.integers(0, 50, 5_000), False),
        (_RNG.integers(-10**12, 10**12, 40)[_RNG.integers(0, 40, 3_000)], False),
        (np.array([5]), False),
        (np.full(100, -3), False),
        # the packed keys would overflow: the stable argsort path
        (np.r_[_INT64.min, _RNG.integers(-3, 3, 2_000), _INT64.max], True),
        (_RNG.integers(_INT64.min, _INT64.max, 60, dtype=np.int64)[_RNG.integers(0, 60, 3_000)],
         True),
    ], ids=["repeats", "wide-ids", "single", "constant", "int64-edges", "int64-spread"])
    def test_matches_unique_reference(self, ids, fallback):
        ids = ids.astype(np.int64)
        span = int(ids.max()) - int(ids.min()) + 1
        assert (span * ids.size > _INT64.max) == fallback
        got, expected = data_module._first_appearance(ids), unique_first_appearance(ids)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def dict_first_appearance(ids):
    """A dict filled in first-appearance order: the plainest remap."""
    index = {}
    dense = [index.setdefault(i, len(index)) for i in ids]
    return list(index), dense


@st.composite
def id_columns(draw):
    """(kind, IDs): dense spans either side of the table bound, sparse, int64 edges."""
    kind = draw(st.sampled_from(["span n", "span n+1", "sparse", "int64 edges", "single"]))
    if kind == "single":
        return kind, [draw(st.integers(_INT64.min, _INT64.max))]
    n = draw(st.integers(2, 60))
    if kind == "int64 edges":
        near = st.sampled_from([_INT64.min, _INT64.min + 1, -1, 0, 1, _INT64.max - 1, _INT64.max])
        ids = [_INT64.min, _INT64.max] + draw(st.lists(near, min_size=n - 2, max_size=n - 2))
    else:
        span = {"span n": n, "span n+1": n + 1}.get(kind) or draw(st.integers(n + 2, 10**12))
        lo = draw(st.integers(-10**15, 10**15))  # negative IDs too
        inner = draw(st.lists(st.integers(0, span - 1), min_size=n - 2, max_size=n - 2))
        ids = [lo + offset for offset in [0, span - 1] + inner]
    return kind, draw(st.permutations(ids))


@settings(max_examples=300, deadline=None)
@given(id_columns())
def test_first_appearance_matches_dict_reference(case):
    kind, ids = case
    event(kind)
    distinct, index = data_module._first_appearance(np.array(ids, dtype=np.int64))
    assert (distinct.dtype, index.dtype) == (np.int64, np.int64)
    assert (distinct.tolist(), index.tolist()) == dict_first_appearance(ids)


class TestSplitDataset:
    def test_ten_triples_six_two_two(self):
        data = make_dataset(5, 5, 10, seed=0)
        split = split_dataset(data, seed=1)
        assert split.train.n_ratings == 6
        assert split.validation.n_ratings == 2
        assert split.test.n_ratings == 2

    def test_same_seed_same_membership(self):
        data = make_dataset(6, 6, 20, seed=1)
        a = split_dataset(data, seed=5)
        b = split_dataset(data, seed=5)
        np.testing.assert_array_equal(a.train.user_idx, b.train.user_idx)
        np.testing.assert_array_equal(a.test.rating, b.test.rating)

    def test_partition_property_100_seeds(self):
        data = make_dataset(40, 50, 1000, seed=2)
        full = set(zip(data.user_idx.tolist(), data.item_idx.tolist()))
        for seed in range(100):
            split = split_dataset(data, seed=seed)
            parts = [set(zip(p.user_idx.tolist(), p.item_idx.tolist()))
                     for p in (split.train, split.validation, split.test)]
            assert parts[0] | parts[1] | parts[2] == full
            assert not (parts[0] & parts[1])
            assert not (parts[0] & parts[2])
            assert not (parts[1] & parts[2])
            total = sum(len(p) for p in parts)
            assert total == data.n_ratings

    def test_different_seeds_differ(self):
        data = make_dataset(6, 6, 30, seed=3)
        differing = 0
        for seed in range(10):
            a = split_dataset(data, seed=2 * seed)
            b = split_dataset(data, seed=2 * seed + 1)
            keys_a = set(zip(a.test.user_idx.tolist(), a.test.item_idx.tolist()))
            keys_b = set(zip(b.test.user_idx.tolist(), b.test.item_idx.tolist()))
            if keys_a != keys_b:
                differing += 1
        assert differing >= 9

    def test_dimensions_and_scale_preserved(self):
        data = make_dataset(7, 8, 20, seed=4)
        split = split_dataset(data, seed=0)
        for part in (split.train, split.validation, split.test):
            assert part.n_users == 7
            assert part.n_items == 8
            assert part.scale == data.scale

    def test_held_out_is_validation_then_test_in_one_copy(self):
        data = make_dataset(8, 9, 40, seed=5)
        split = split_dataset(data, seed=3)
        assert split.held_out.n_ratings == split.validation.n_ratings + split.test.n_ratings
        for name in ("user_idx", "item_idx", "rating"):
            held_out = getattr(split.held_out, name)
            parts = [getattr(split.validation, name), getattr(split.test, name)]
            np.testing.assert_array_equal(held_out, np.concatenate(parts))
            assert all(np.shares_memory(held_out, part) for part in parts)

    def test_too_few_triples(self):
        data = make_dataset(2, 2, 2, seed=0)
        with pytest.raises(BpmfError):
            split_dataset(data)


def test_only_the_parser_sorts_for_repeated_pairs(tmp_path, monkeypatch):
    # 90 ratings of 10 users and 12 movies with dense IDs: the remap sorts
    # only its 10 and 12 distinct IDs, so a sort of 90 keys is the repeat check
    rng = np.random.default_rng(4)
    pairs = [(u, m) for u in range(1, 11) for m in range(1, 13) if (u + m) % 4]
    path = tmp_path / "ratings.csv"
    path.write_text(HEADER + "".join(f"{u},{m},{rng.integers(1, 6)},0\n"
                                     for u, m in rng.permutation(pairs)))
    sizes = []
    sort = np.sort

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    split = split_dataset(build_dataset(*load_ratings(path))[0])
    assert sizes.count(90) == 1
    parts = (split.train, split.validation, split.test, split.held_out)
    assert not {part.n_ratings for part in parts} & set(sizes)
