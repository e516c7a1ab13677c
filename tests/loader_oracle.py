"""Reference weight and embedding loaders that parse one float() per value.

These are `mtlens.transformer.load_model` and
`mtlens.semsim.load_embeddings` as they were before both parsed each
array in one block with np.loadtxt, with the error texts of
`mtlens.corpus.read_array` for bad and short rows. float() also
accepts `1_0`, non-ASCII digits and any Unicode whitespace between
values, and every error names its line, so the production loaders
must give the same array bits, or the same DataError text, as these
on any input. Both refuse the same header keys and repeated names,
and any first line but "mtlens-weights 1".
"""

import math

import numpy as np

from mtlens.corpus import read_lines
from mtlens.errors import DataError
from mtlens.semsim import EmbeddingSet, _nonfinite_row
from mtlens.transformer import TransformerModel


def load_model(path) -> TransformerModel:
    config = {}
    weights = {}
    lines = read_lines(path)
    if next(lines, (1, ""))[1].split() != ["mtlens-weights", "1"]:
        raise DataError(f"{path}: line 1: not a version 1 weight file (want 'mtlens-weights 1')")
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "array" and len(parts) > 2:
                name = parts[1]
                if name in weights:
                    raise DataError(f"{path}: line {lineno}: repeated array {name!r}")
                shape = tuple(int(d) for d in parts[2:])
                nrows = 1 if len(shape) == 1 else shape[0]
                ncols = math.prod(shape[1:] or shape)
                rows = []
                for _ in range(nrows):
                    lineno, row = next(lines, (lineno, None))
                    if row is None:
                        raise DataError(
                            f"{path}: end of file after {len(rows)} rows; the header promises {nrows}"
                        )
                    try:
                        values = [float(v) for v in row.split()]
                    except ValueError as exc:
                        raise DataError(f"{path}: line {lineno}: bad number") from exc
                    if len(values) != ncols:
                        raise DataError(
                            f"{path}: line {lineno}: expected {ncols} values, got {len(values)}"
                        )
                    rows.append(values)
                weights[name] = np.array(rows, dtype=np.float64).reshape(shape)
            elif len(parts) == 2:
                value = int(parts[1])
                if parts[0] not in ("layers", "heads", "dim", "ffn", "vocab"):
                    raise DataError(f"{path}: line {lineno}: unknown header key {parts[0]!r}")
                if parts[0] in config:
                    raise DataError(f"{path}: line {lineno}: repeated header key {parts[0]!r}")
                config[parts[0]] = value
            else:
                raise DataError(f"{path}: line {lineno}: unparseable line {line!r}")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return TransformerModel(
            layers=config["layers"],
            heads=config["heads"],
            dim=config["dim"],
            ffn=config["ffn"],
            vocab_size=config["vocab"],
            weights=weights,
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing config key {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_embeddings(path) -> EmbeddingSet:
    """Parse "count dim" header plus one vector row per line."""
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise DataError(f"{path}: header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"{path}: bad header {header!r}") from exc
    if count < 0 or dim < 1:
        raise DataError(f"{path}: bad header counts {count} {dim}")
    rows = []
    for lineno, line in lines:
        if len(rows) == count:  # only blank lines may follow the rows
            if line.strip():
                raise DataError(f"{path}: line {lineno}: more rows than the header's {count}")
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad number") from exc
        if len(row) != dim:
            raise DataError(
                f"{path}: line {lineno}: expected {dim} values, got {len(row)}"
            )
        rows.append(row)
    if len(rows) < count:
        raise DataError(
            f"{path}: end of file after {len(rows)} rows; the header promises {count}"
        )
    try:
        arr = np.array(rows, dtype=np.float64).reshape(count, dim)
    except ValueError as exc:  # a dim too large for numpy, with no rows
        raise DataError(f"{path}: bad header counts {count} {dim}") from exc
    bad = _nonfinite_row(arr)
    if bad is not None:
        raise DataError(f"{path}: line {bad + 2}: non-finite value")
    return EmbeddingSet(vectors=arr)
