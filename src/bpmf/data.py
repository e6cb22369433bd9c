"""MovieLens-style ratings ingestion, ID remapping, and splitting.

The CSV contract is the MovieLens layout: a ``userId,movieId,rating,
timestamp`` header followed by comma-separated rows; the timestamp
column is read and discarded. Sparse original IDs are remapped to dense
0-based indices in first-appearance order.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BpmfError, DataFormatError
from .model import RatingDataset, RatingScale

EXPECTED_HEADER = ["userId", "movieId", "rating", "timestamp"]
# the train/validation/test shares of the paper's split
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)

# The columnar parse takes only bodies made of these bytes, with every
# line shorter than the csv field limit. Within them np.loadtxt and the
# csv row loop split and convert every field alike; anything else
# (quotes, spaces, signs, exponents, lone CRs) goes to the row loop.
_FAST_HEADERS = tuple(",".join(EXPECTED_HEADER).encode() + end for end in (b"\n", b"\r\n"))
_FAST_BYTES = b"0123456789,.\r\n"
_COLUMNS = np.dtype([("user_id", np.int64), ("movie_id", np.int64), ("rating", np.float64)])
_INT64 = np.iinfo(np.int64)
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # names np.loadtxt would decompress
_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


@dataclass
class SplitDataset:
    train: RatingDataset
    validation: RatingDataset
    test: RatingDataset
    # validation then test: the pairs a run is scored on
    held_out: RatingDataset
    maps: tuple[np.ndarray, np.ndarray] | None = None  # build_dataset's ID arrays, as given


def load_ratings(path):
    """Parse a ratings CSV; returns ((user_ids, movie_ids, ratings), RatingScale).

    ``path`` is a path (str or os.PathLike); the file may start with a
    UTF-8 byte-order mark. The three columns are int64, int64 and
    float64 arrays in file order. Every rating must lie in (0, 10] on
    the half-star grid (twice the rating is an integer). The scale is
    detected from the data: r_max = max(2, ceil(max rating)) and
    r_min = 0.5 when any half-star rating is present, else 1.

    Files of plain digits, commas, dots and newlines are parsed as whole
    columns, a regular file by numpy from its path, and the three columns
    are views of numpy's one table; other files, and files that break a
    rule, go through the row loop, which raises ``DataFormatError`` with
    the line number of the first offending row.
    """
    with open(path, "rb") as fh:
        opened = os.fstat(fh.fileno())
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    columns = _parse_columns(data, os.path.abspath(path), opened)
    if columns is None:
        columns = _parse_rows(_decode(data))
    return columns, _detect_scale(columns[2])


def _detect_scale(ratings) -> RatingScale:
    if ratings.size == 0:
        return RatingScale(5)
    half_star = bool(np.any(ratings != np.floor(ratings)))
    return RatingScale(max(2, math.ceil(ratings.max())), 0.5 if half_star else 1.0)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"invalid UTF-8: {exc.reason}", line=line) from None


def _parse_columns(data: bytes, path=None, opened=None):
    """Whole-column parse; None when the file needs the row loop. The checks run
    on ``data``; numpy reads a regular file ``path`` itself, in chunks, if its stat
    still equals ``opened`` after. Pipes and names numpy would decompress are
    parsed from ``data``."""
    header = next((h for h in _FAST_HEADERS if data.startswith(h)), None)
    # the body is checked in place: only the header's own letters may survive the translation
    if (header is None or data.translate(None, _FAST_BYTES) != header.translate(None, _FAST_BYTES)
            or not _lines_within_csv_limit(data, len(header))):
        return None
    if path is not None and (not stat.S_ISREG(opened.st_mode) or path.endswith(_COMPRESSED)):
        path = None
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on an empty body
            warnings.simplefilter("error")
            table = np.loadtxt(
                path or io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline=""),
                encoding="utf-8-sig", skiprows=1, delimiter=",", usecols=(0, 1, 2),
                comments=None, dtype=_COLUMNS, ndmin=1,
            )
        if path is not None and _IDENTITY(os.stat(path)) != _IDENTITY(opened):
            raise OSError("the file changed while it was parsed")
    except OSError:
        return None if path is None else _parse_columns(data)
    except (ValueError, Warning):
        return None
    users, movies, ratings = (table[name] for name in _COLUMNS.names)
    if (not np.all((ratings > 0.0) & (ratings <= 10.0))
            or np.any(2.0 * ratings != np.floor(2.0 * ratings))
            or _may_repeat_a_pair(users, movies)):
        return None
    return users, movies, ratings


def _lines_within_csv_limit(data: bytes, offset: int) -> bool:
    """Whether no line of ``data`` from ``offset`` on reaches the csv
    module's field size limit.

    A line of 2*step bytes or more covers a whole step-aligned block, so
    a newline in every such block bounds each line below 2*step.
    """
    step = max(1, csv.field_size_limit() // 2)
    return all(data.find(b"\n", start, start + step) >= 0
               for start in range(offset, len(data) - step + 1, step))


def _may_repeat_a_pair(users, movies) -> bool:
    """Whether a (user, movie) pair repeats; also True when packing the
    pair into one int64 key could overflow."""
    m_min, u_min = int(movies.min()), int(users.min())
    m_span = int(movies.max()) - m_min + 1
    if (int(users.max()) - u_min + 1) * m_span > _INT64.max:
        return True
    keys = np.sort((users - u_min) * m_span + (movies - m_min))
    return bool(np.any(keys[1:] == keys[:-1]))


def _parse_rows(text: str):
    """Reference parser: one csv row at a time, line-numbered errors."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _read_rows(reader)
    except csv.Error as exc:
        raise DataFormatError(str(exc), line=reader.line_num) from None


def _read_rows(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty file: missing header") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise DataFormatError(
            f"expected header {','.join(EXPECTED_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )

    users, movies, ratings = [], [], []
    seen = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 3:
            raise DataFormatError(f"expected at least 3 fields, got {len(row)}", line=line_no)
        try:
            user_id = int(row[0])
            movie_id = int(row[1])
            rating = float(row[2])
        except ValueError:
            raise DataFormatError(f"non-numeric field in row {row!r}", line=line_no) from None
        if not (_INT64.min <= user_id <= _INT64.max and _INT64.min <= movie_id <= _INT64.max):
            raise DataFormatError("ID outside the 64-bit integer range", line=line_no)
        if not 0.0 < rating <= 10.0:
            raise DataFormatError(f"rating {rating} outside (0, 10]", line=line_no)
        if 2.0 * rating != int(2.0 * rating):
            raise DataFormatError(f"rating {rating} is not a multiple of 0.5", line=line_no)
        key = (user_id, movie_id)
        if key in seen:
            raise DataFormatError(f"duplicate (user, movie) pair {key}", line=line_no)
        seen.add(key)
        users.append(user_id)
        movies.append(movie_id)
        ratings.append(rating)
    return (np.array(users, dtype=np.int64), np.array(movies, dtype=np.int64),
            np.array(ratings, dtype=np.float64))


def _first_appearance(ids):
    """Distinct IDs in first-appearance order, and each entry's dense index: through
    a lookup table when the ID span is at most ``ids.size``, else one stable sort."""
    n = ids.size
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span <= n:
        offsets = ids - lo  # each ID's first position, then its rank, at its offset
        table = np.full(span, n)
        np.minimum.at(table, offsets, np.arange(n))
        first = table[table < n]  # by ascending ID
        table[table < n] = np.argsort(np.argsort(first))
        return ids[np.sort(first)], table[offsets]
    # entry positions grouped by ID, each group's first appearance first
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    new_id = grouped[1:] != grouped[:-1]
    first = order[np.flatnonzero(np.r_[True, new_id])]  # by ascending ID
    rank = np.argsort(np.argsort(first))
    index = np.empty_like(order)
    index[order] = rank[np.cumsum(np.r_[0, new_id])]
    return ids[np.sort(first)], index


def build_dataset(ratings, scale: RatingScale):
    """Remap IDs densely and normalize ratings; returns (RatingDataset, (user_ids, movie_ids)).

    ``ratings`` and ``scale`` are what ``load_ratings`` returns, so no
    (user, movie) pair repeats: the parser rejects a file that repeats one.
    The ID arrays (int64) hold the distinct IDs in first-appearance order,
    so ``user_ids[data.user_idx]`` is the user column.
    """
    user_ids, movie_ids, values = ratings
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise BpmfError("cannot build a dataset from zero ratings")
    users, ii = _first_appearance(np.ascontiguousarray(user_ids, dtype=np.int64))
    items, jj = _first_appearance(np.ascontiguousarray(movie_ids, dtype=np.int64))
    data = RatingDataset(users.size, items.size, ii, jj, (values - scale.r_min) / scale.span, scale)
    return data, (users, items)


def split_dataset(data: RatingDataset, seed: int = 0, maps: tuple | None = None) -> SplitDataset:
    """Random train/validation/test partition of the rating triples.

    The triple order is permuted with a seeded PCG64 generator and cut at
    floor(L*train) and floor(L*(train+val)), the shares of
    ``SPLIT_FRACTIONS``; all parts keep the full (n_users, n_items)
    dimensions and the original scale. Each column is gathered by the
    permutation once, and every part, ``held_out`` included, is a slice
    of that one copy, range-checked as a ``RatingDataset``.
    """
    f_train, f_val, _ = SPLIT_FRACTIONS
    length = data.n_ratings
    if length < 3:
        raise BpmfError(f"need at least 3 ratings to split, got {length}")

    perm = np.random.default_rng(seed).permutation(length)
    cut1 = int(math.floor(length * f_train))
    cut2 = int(math.floor(length * (f_train + f_val)))
    columns = (data.user_idx[perm], data.item_idx[perm], data.rating[perm])
    train, validation, test, held_out = (
        RatingDataset(data.n_users, data.n_items, *(column[part] for column in columns), data.scale)
        for part in (slice(cut1), slice(cut1, cut2), slice(cut2, None), slice(cut1, None)))
    return SplitDataset(train, validation, test, held_out, maps)
