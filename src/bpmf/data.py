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
import warnings
from dataclasses import dataclass
from pathlib import Path

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


@dataclass
class IdMaps:
    """Bijections between original sparse IDs and dense indices."""

    user_to_index: dict
    item_to_index: dict
    index_to_user: list
    index_to_item: list


@dataclass
class SplitDataset:
    train: RatingDataset
    validation: RatingDataset
    test: RatingDataset
    maps: IdMaps | None = None


def load_ratings(source):
    """Parse a ratings CSV; returns ((user_ids, movie_ids, ratings), RatingScale).

    ``source`` may be a path or an open text stream; a path may start
    with a UTF-8 byte-order mark. The three columns are int64, int64 and
    float64 arrays in file order. Every rating must lie in (0, 10] on
    the half-star grid (twice the rating is an integer). The scale is
    detected from the data: r_max = max(2, ceil(max rating)) and
    r_min = 0.5 when any half-star rating is present, else 1.

    Files of plain digits, commas, dots and newlines are parsed as whole
    columns; any other file, and any file that breaks a rule, goes
    through the row loop, which raises ``DataFormatError`` with the line
    number of the first offending row.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    else:
        data = source.read().encode("utf-8")
    columns = _parse_columns(data)
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


def _parse_columns(data: bytes):
    """Whole-column parse; None when the file needs the row loop."""
    header = next((h for h in _FAST_HEADERS if data.startswith(h)), None)
    if header is None:
        return None
    body = data[len(header):]
    if body.translate(None, _FAST_BYTES) or not _lines_within_csv_limit(body):
        return None
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on an empty body
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(body), encoding="ascii", newline=""),
                delimiter=",", usecols=(0, 1, 2), comments=None, dtype=_COLUMNS, ndmin=1,
            )
    except (ValueError, Warning):
        return None
    users, movies, ratings = (np.ascontiguousarray(table[name]) for name in _COLUMNS.names)
    if (not np.all((ratings > 0.0) & (ratings <= 10.0))
            or np.any(2.0 * ratings != np.floor(2.0 * ratings))
            or _may_repeat_a_pair(users, movies)):
        return None
    return users, movies, ratings


def _lines_within_csv_limit(body: bytes) -> bool:
    """Whether no line reaches the csv module's field size limit.

    A line of 2*step bytes or more covers a whole step-aligned block, so
    a newline in every such block bounds each line below 2*step.
    """
    step = max(1, csv.field_size_limit() // 2)
    return all(body.find(b"\n", start, start + step) >= 0
               for start in range(0, len(body) - step + 1, step))


def _may_repeat_a_pair(users, movies) -> bool:
    """Whether a (user, movie) pair repeats; also True when packing the
    pair into one int64 key could overflow."""
    u_min, m_min = int(users.min()), int(movies.min())
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
    """Distinct IDs in first-appearance order, and each entry's dense index."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


def build_dataset(ratings, scale: RatingScale):
    """Remap IDs densely and normalize ratings; returns (RatingDataset, IdMaps).

    ``ratings`` is the (user_ids, movie_ids, ratings) column triple that
    ``load_ratings`` returns, with its scale.
    """
    user_ids, movie_ids, values = ratings
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise BpmfError("cannot build a dataset from zero ratings")
    users, ii = _first_appearance(np.asarray(user_ids, dtype=np.int64))
    items, jj = _first_appearance(np.asarray(movie_ids, dtype=np.int64))
    data = RatingDataset(users.size, items.size, ii, jj, (values - scale.r_min) / scale.span, scale)
    users, items = users.tolist(), items.tolist()
    maps = IdMaps(user_to_index=dict(zip(users, range(len(users)))),
                  item_to_index=dict(zip(items, range(len(items)))),
                  index_to_user=users, index_to_item=items)
    return data, maps


def split_dataset(data: RatingDataset, fractions=SPLIT_FRACTIONS, seed: int = 0,
                  maps: IdMaps | None = None) -> SplitDataset:
    """Random train/validation/test partition of the rating triples.

    The triple order is permuted with a seeded PCG64 generator and cut at
    floor(L*train) and floor(L*(train+val)); all three parts keep the
    full (n_users, n_items) dimensions and the original scale.
    """
    f_train, f_val, f_test = fractions
    if min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise BpmfError(f"fractions must be positive and sum to 1, got {fractions}")
    length = data.n_ratings
    if length < 3:
        raise BpmfError(f"need at least 3 ratings to split, got {length}")

    perm = np.random.default_rng(seed).permutation(length)
    cut1 = int(math.floor(length * f_train))
    cut2 = int(math.floor(length * (f_train + f_val)))

    def part(indices):
        return RatingDataset(
            data.n_users, data.n_items,
            data.user_idx[indices], data.item_idx[indices], data.rating[indices],
            data.scale,
        )

    return SplitDataset(
        train=part(perm[:cut1]),
        validation=part(perm[cut1:cut2]),
        test=part(perm[cut2:]),
        maps=maps,
    )
