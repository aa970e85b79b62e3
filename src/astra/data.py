"""Dataset ingestion, label orientation, standardization, stratified fold
planning and minority undersampling.

Input formats: a sparse text format (``<label> <index>:<value> ...`` with
1-based ascending indices) and a plain CSV (``label,f1,...,fn``), both read
in blocks of lines.  Datasets are dense in memory; the largest set
targeted here is ~20k x 22.  Records (runs, epochs) are CSV, a dataclass's fields.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, islice
from typing import get_args, get_type_hints

import numpy as np

# Lines the readers convert at a time: one block's tokens and arrays are all
# they hold besides the blocks already converted.
BLOCK_LINES = 256


class DataFormatError(ValueError):
    pass


@dataclass(frozen=True)
class RawData:
    """Parsed features plus unoriented labels (e.g. {1,2}, {+1,-1}, {0,1})."""

    X: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with 0/1 targets; minority class is labelled 1."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("feature/target row mismatch")
        if not np.all(np.isin(self.y, (0, 1))):
            raise ValueError("targets must be 0/1")

    @property
    def n_x(self) -> int:
        return self.X.shape[1]

    @property
    def m_tot(self) -> int:
        return self.X.shape[0]

    @property
    def m1(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def m0(self) -> int:
        return int(np.sum(self.y == 0))

    @property
    def ir(self) -> float:
        return self.m0 / self.m1

    def subset(self, idx) -> "Dataset":
        return Dataset(X=self.X[idx], y=self.y[idx])


def parse_sparse(source) -> RawData:
    """Parse the sparse text format from a path or open text stream.

    Each non-blank line is a label and ``index:value`` tokens, split on
    whitespace: the label and the values as ``float()`` reads them, each
    index as ``int()`` does, strictly ascending from 1.  Lines are those of
    ``str.splitlines``.  Omitted indices read as 0; the feature width is the
    largest index seen.  Malformed lines are reported with their line number.

    The source is read and converted BLOCK_LINES lines at a time, so the
    peak memory is about twice the result (the converted blocks, then X)
    plus one block's text and tokens.  A stream passed in is not closed.
    """
    return _parse(source, _sparse_block)


def parse_csv(source) -> RawData:
    """Parse a plain CSV ``label,f1,...,fn`` from a path or open text stream.

    Each non-blank line holds as many comma-separated values as the first,
    each read as ``float()`` reads it; a non-numeric line 1 (a header) is
    skipped.  Lines, errors and memory are as in parse_sparse.
    """
    return _parse(source, _csv_block)


def _parse(source, convert) -> RawData:
    if hasattr(source, "read"):
        return _parse_blocks(source, convert)
    with open(source) as fh:
        return _parse_blocks(fh, convert)


def _parse_blocks(fh, convert) -> RawData:
    """The labels and rows of every block of lines, by `convert(lines,
    lineno, width)`: ``lines[0]`` is line `lineno`, and `width` is the
    feature count of the first row before the block, None before any."""
    labels, blocks, lineno, width = [], [], 1, None
    for lines in _line_blocks(fh):
        block_labels, block = convert(lines, lineno, width)
        lineno += len(lines)
        if width is None and len(block):
            width = block.shape[1]
        labels.append(block_labels)
        blocks.append(block)
    n = sum(map(len, labels))
    if not n:
        raise DataFormatError("empty file")
    X = np.zeros((n, max(block.shape[1] for block in blocks)))
    row = 0
    for block in blocks:
        X[row:row + len(block), :block.shape[1]] = block
        row += len(block)
    return RawData(X=X, labels=np.concatenate(labels))


def _line_blocks(fh):
    """The lines of ``fh.read().splitlines()``, line breaks kept, in lists
    of about BLOCK_LINES.  The last line read is held back and split again
    with the next read, in case it ends in a carriage return that the next
    read's line feed completes."""
    tail = ""
    while chunk := "".join(islice(fh, BLOCK_LINES)):
        lines = (tail + chunk).splitlines(keepends=True)
        tail = lines.pop()
        yield lines
    if tail:
        yield [tail]


def _sparse_block(lines, lineno: int, width):
    """The labels and the dense rows of a block of sparse lines, of any
    width: by _convert_block, or by _scan_block where that raises."""
    try:
        return _convert_block(lines)
    except (ValueError, OverflowError):
        return _scan_block(lines, lineno)


def _convert_block(lines):
    """The labels and the dense rows of a block, each kind of token
    converted in one call.

    Raises ValueError or OverflowError (an index beyond int64) if any line
    is not in the format; _scan_block then finds the line.
    """
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    labels = np.array([tokens[0] for tokens in rows], dtype=float)
    counts = np.fromiter(map(len, rows), np.intp, len(rows)) - 1
    feats = list(chain.from_iterable([tokens[1:] for tokens in rows]))
    joined = " ".join(feats)
    parts = joined.replace(":", " ").split()
    # One ":" per token: the ":"s alternate with the spaces that join the
    # tokens.  Two parts per token: neither side of a ":" is empty.
    text = np.frombuffer(joined.encode(), np.uint8)
    colons = np.flatnonzero(text == ord(":"))
    spaces = np.flatnonzero(text == ord(" "))
    if (len(colons) != len(feats) or len(parts) != 2 * len(feats)
            or not (colons[:-1] < spaces).all()
            or not (spaces < colons[1:]).all()):
        raise ValueError("not in the sparse format")
    idx = np.array(parts[0::2], dtype=np.int64)
    vals = np.array(parts[1::2], dtype=float)
    # Each index exceeds the one before it in its row, the first exceeds 0.
    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    starts = np.cumsum(counts) - counts
    prev[starts[counts > 0]] = 0
    if not (idx > prev).all():
        raise ValueError("indices not ascending from 1")
    block = np.zeros((len(rows), idx.max(initial=0)))
    block[np.repeat(np.arange(len(rows)), counts), idx - 1] = vals
    return labels, block


def _scan_block(lines, lineno: int):
    """_convert_block line by line, ``lines[0]`` being line ``lineno``:
    raises the DataFormatError of the first malformed line.  A block with
    none (an index beyond int64) is converted here."""
    labels, rows, cols, vals = [], [], [], []
    for lineno, line in enumerate(lines, start=lineno):
        tokens = line.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad feature token {tok!r}")
            if idx <= prev:
                raise DataFormatError(
                    f"line {lineno}: indices must be ascending and 1-based")
            prev = idx
            rows.append(len(labels) - 1)
            cols.append(idx - 1)
            vals.append(val)
    block = np.zeros((len(labels), max(cols, default=-1) + 1))
    block[rows, cols] = vals
    return np.array(labels, dtype=float), block


def _csv_block(lines, lineno: int, width):
    """The labels and rows of a block of CSV lines, ``lines[0]`` being line
    ``lineno``: each row a label and `width` features (as many as the
    first row if None), a non-numeric line 1 skipped.  A malformed line
    raises its DataFormatError."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()    # it drops \x1c-\x1f, which float() rejects
        if not line:
            continue
        try:
            row = list(map(float, line.split(",")))
        except ValueError:
            if lineno == 1:
                continue
            raise DataFormatError(f"line {lineno}: bad value in {line!r}")
        if width is None:
            width = len(row) - 1
        if len(row) != width + 1:
            raise DataFormatError(f"line {lineno}: expected {width + 1} "
                                  f"values, got {len(row)}")
        rows.append(row)
    block = np.array(rows) if rows else np.empty((0, 1))
    return block[:, 0], block[:, 1:]


def _negative_zero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0


def write_sparse(path, X: np.ndarray, labels: np.ndarray) -> None:
    """Emit the sparse format; +0.0 entries are omitted, and every float,
    -0.0 included, round-trips."""
    with open(path, "w") as fh:
        for row, lab in zip(X, labels):
            lab = float(lab)
            integral = lab.is_integer() and not _negative_zero(lab)
            lab_s = str(int(lab)) if integral else repr(lab)
            feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)
                             if v != 0.0 or _negative_zero(v))
            fh.write(f"{lab_s} {feats}".rstrip() + "\n")


def field_types(cls) -> dict:
    """Field name -> type of the dataclass `cls`, `T | None` given as T."""
    hints = get_type_hints(cls)
    return {f.name: (get_args(hints[f.name]) or [hints[f.name]])[0]
            for f in fields(cls)}


def write_records(records, cls, path) -> None:
    """CSV of `records` of the dataclass `cls`, under a header of its fields."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(names)
        out.writerows([getattr(r, name) for name in names] for r in records)


def _cast(kind, cell: str):
    if kind is bool and cell not in ("True", "False"):
        raise ValueError(f"not a bool: {cell!r}")
    return cell == "True" if kind is bool else kind(cell)


def read_records(cls, path) -> list:
    """The records `write_records` wrote, blank lines skipped, each cell cast
    by its field's type (None if empty and the field has a default).  Any
    fault, or no record, raises DataFormatError naming the path and line."""
    types = field_types(cls)
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(types):
            raise DataFormatError(f"{path} line 1: unexpected header")
        for row in filter(None, rows):
            where = f"{path} line {rows.line_num}"
            if len(row) != len(types):
                raise DataFormatError(f"{where}: expected {len(types)} values, "
                                      f"got {len(row)}")
            try:
                records.append(cls(**{
                    name: None if not cell and name in optional else _cast(kind, cell)
                    for (name, kind), cell in zip(types.items(), row)}))
            except ValueError as exc:
                raise DataFormatError(f"{where}: {exc}") from None
        if not records:
            raise DataFormatError(f"{path} line {rows.line_num}: no records")
    return records


def orient_labels(raw: RawData) -> Dataset:
    """Map the rarer raw label to 1 and the commoner to 0.

    Ties are broken by mapping the numerically larger raw label to 1.
    """
    values, counts = np.unique(raw.labels, return_counts=True)
    if len(values) != 2:
        raise ValueError(f"expected exactly two distinct labels, got {values}")
    if counts[0] < counts[1]:
        minority = values[0]
    elif counts[1] < counts[0]:
        minority = values[1]
    else:
        minority = max(values)
    y = (raw.labels == minority).astype(int)
    return Dataset(X=raw.X.copy(), y=y)


def standardize(train: Dataset, others: list[Dataset] | None = None):
    """Center/scale every feature by train-fold statistics.

    Zero-variance features are centered only.  Returns the scaled train set,
    the scaled other sets, and the (mean, std) used.  The scaled X are
    feature-major (Fortran-ordered), the layout network.forward is fast in.
    """
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    scaled = []
    for ds in [train] + list(others or []):
        X = np.subtract(ds.X, mean, order="F")
        X /= std                                  # (ds.X - mean) / std
        scaled.append(Dataset(X=X, y=ds.y.copy()))
    return scaled[0], scaled[1:], mean, std


def stratified_folds(ds: Dataset, k: int, seed) -> np.ndarray:
    """The fold, 0 to k - 1, of each example: each class is shuffled on its
    own and dealt round-robin into the k folds, which partition the dataset."""
    if ds.m1 < 1:
        raise ValueError("dataset has no positives")
    if k < 2:
        raise ValueError("need k >= 2")
    if ds.m_tot < k:
        raise ValueError("fewer examples than folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(ds.m_tot, dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(ds.y == cls)
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % k
    return assignments


def fold_split(ds: Dataset, plan: np.ndarray, test_fold: int, val_fold: int):
    """(train, val, test) datasets for one rotation of the plan, the fold of
    each example (stratified_folds)."""
    if test_fold == val_fold:
        raise ValueError("test and validation folds must differ")
    masks = ((plan != test_fold) & (plan != val_fold), plan == val_fold,
             plan == test_fold)
    return tuple(ds.subset(np.flatnonzero(mask)) for mask in masks)


def undersample_minority(ds: Dataset, keep: int, seed):
    """Retain all negatives and a seeded uniform sample of ``keep`` positives.

    Returns the reduced dataset and the retained positive row indices.
    """
    if not 1 <= keep <= ds.m1:
        raise ValueError(f"keep must be in [1, {ds.m1}], got {keep}")
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(ds.y == 1)
    kept = np.sort(rng.choice(pos_idx, size=keep, replace=False))
    mask = ds.y == 0
    mask[kept] = True
    return ds.subset(np.flatnonzero(mask)), kept
