"""Command-line surface: simulate, estimate, study and fit subcommands.

Exit codes: 0 success, 2 usage or input error (an --out-dir at or below a
file included, found before any input is read), 3 estimation non-convergence
or an estimator that cannot run on the data (no dispersion, or a singular
moment covariance), in which case nothing is written; a study names the
seed of the path that failed.  `main` alone maps the package's errors to
these codes.
A subcommand creates its output directory only after its inputs are
validated and its outputs computed (simulate's path files excepted: each is
written as it is drawn, the directory with the first), so a command that
fails leaves none.
All file outputs are UTF-8. Every CSV goes through `_write_csv`, which
writes, as bytes, what the csv module's default writer would: CRLF line
endings and minimal quoting.  One rule, the dtype of a column's first cell,
decides its cells: dates as read, quoted as csv quotes them; floats as
`%.17g`, at full float64 precision, so reruns with the same seed are
byte-identical; everything else as `%d`.  Every float goes through `_g17`,
one formatter for a table of any size: numpy digits where 1e-4 <= |v| < 1,
`%` for the rest.
An input series is read a block of bytes at a time, by `_blocks` alone,
and parsed in bulk or by csv's row loop into one float64 array and, for
`date,value` rows, one `_DateColumn`: the dates as one UTF-8 buffer and
offsets, split into bytes only a chunk of rows at a time when
`series_used.csv` is written.  No copy of the whole file is held: a block
ends at a line ending, LF or, in a file with bare-CR line endings, CR.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import logging
import math
import os
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import asdict, fields
from functools import cache, partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .descriptive import demean, histogram, normal_qq_points, sample_acov, sample_var
from .errors import DataError, DomainError, InitializationError, SingularWeightingError
from .gmm import (
    GmmResult,
    MomentConditionSet,
    default_conditions,
    transform,
    two_step_gmm,
    untransform,
)
from .moments import (
    intsupou_acov,
    intsupou_var,
    supou_acov,
    supou_var,
    sv_sqret_acov,
    sv_sqret_var,
)
from .params import ModelKind, ObservationSchedule, ParamVector, PiSpec, annualize
from .simulate import LevySpec, SimulationConfig, _rng, simulate_path

logger = logging.getLogger("supou.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3

PARAM_NAMES = tuple(field.name for field in fields(ParamVector))
HIST_BINS = 20
# half-width of the uniform log-scale jitter around the truth that a
# recovery study starts each path's estimation from
START_JITTER = 0.5
# rows per chunk of the CSV writer: `_write_csv` formats this many rows
# with one %-operation
CSV_CHUNK_ROWS = 4096
# bytes per block of the bulk CSV reader, which extends a block to the end
# of its last line
_READ_BLOCK_BYTES = 1 << 16
# every byte but the comma and LF, which `_read_blocks` deletes to see a
# block's separators
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:  # numpy seeds only take non-negative integers
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _lag_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lag list {text!r}") from exc


def _write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write equal-length columns as csv's writer would, one %-format per chunk.

    Every column is sliced alike, a chunk of rows at a time, and the dtype of
    its first cell decides its cells: bytes (a `_DateColumn`'s dates, as read
    and quoted as csv quotes) are written as they are; floats (Python floats
    or a numpy float dtype) as `%.17g` of each, through one `_g17` call on all
    float cells of a chunk; anything else (ints, bools, a `range`) as `%d`.
    The floats of a numpy column become text a chunk at a time, so no
    full-length list of them is made.
    """
    kinds = [np.asarray(c[:1]).dtype.kind for c in columns]
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    # dates and floats come as bytes, from the slice and from `_g17`
    row_format = b",".join(b"%b" if kind in "fS" else b"%d" for kind in kinds) + b"\r\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [c[start:start + CSV_CHUNK_ROWS] for c in columns]
            n_rows = len(chunk[0])
            if floats:
                texts = _g17(np.array([chunk[j] for j in floats], dtype=float).ravel())
                for i, j in enumerate(floats):
                    chunk[j] = texts[i * n_rows:(i + 1) * n_rows]
            # interleaved by slice assignment: a tuple per row (zip) left
            # the heap fragmented, and peak RSS grew by 5 MB over 90 fits
            cells = [None] * (len(chunk) * n_rows)
            for j, column in enumerate(chunk):
                cells[j::len(chunk)] = column
            fh.write(row_format * n_rows % tuple(cells))


def _g17(values: np.ndarray) -> List[bytes]:
    """`b"%.17g" % v` for each v of `values`: in numpy where 1e-4 <= |v| < 1,
    by `%` for the rest.

    The band of v gives E = floor(log10|v|) exactly: the doubles 1e-4,
    1e-3, 0.01 and 0.1 each lie just above their power of ten, with no double
    between, and a negative bound is the double after -10^E, toward 0.  10^k
    for k = 16 - E <= 20 is an exact double, and Dekker's two-product gives
    hi + lo = |v|*10^k with no rounding.  hi >= 2^53 is an even integer, so
    D = hi + rint(lo) is the product rounded to an integer with ties to
    even, as `%` rounds, and it has 17 digits: no double below 10^(E+1)
    rounds up to it.  `%.17g` then writes the sign, "0.", -E - 1 zeros, then
    D without its trailing zeros.  The values of the other bands are zeroed
    here, and `%` writes them after.
    """
    band = np.searchsorted(_G17_BOUNDS, values, side="right")
    scale = _G17_SCALES[band]  # 10^k, with the sign of v; 0 outside numpy's bands
    outside = scale == 0.0
    v = np.where(outside, 0.0, values)
    product = v * scale
    v_hi, v_lo = _dekker_split(v)
    scale_hi, scale_lo = _dekker_split(scale)
    lo = (((v_hi * scale_hi - product) + v_hi * scale_lo + v_lo * scale_hi)
          + v_lo * scale_lo)
    digits = product.astype(np.int64) + np.rint(lo).astype(np.int64)
    # D as a leading digit and four groups of four, each group one uint32
    # of ASCII digits from `_DIGITS4`; scalar divisors keep the int64
    # divisions fast
    high = digits // 10**8
    low = digits - high * 10**8
    groups = np.empty((values.size, 5), dtype=np.intp)
    groups[:, 0] = lead = high // 10**8
    high -= lead * 10**8
    groups[:, 1] = quotient = high // 10**4
    groups[:, 2] = high - quotient * 10**4
    groups[:, 3] = quotient = low // 10**4
    groups[:, 4] = low - quotient * 10**4
    # the leading digit is the last of its group's four
    text = _DIGITS4[groups].view(np.uint8)[:, 3:].view("S17")[:, 0]
    cells = np.char.add(_G17_PREFIXES[band], np.char.rstrip(text, b"0")).tolist()
    rest = outside.nonzero()[0]
    for i, value in zip(rest.tolist(), values[rest].tolist()):
        cells[i] = b"%.17g" % value
    return cells


def _dekker_split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """hi + lo = a exactly, each with at most 26 significant bits."""
    scaled = 134217729.0 * a  # 2^27 + 1
    hi = scaled - (scaled - a)
    return hi, a - hi


# `_g17`'s tables, each small enough to build at import.  The band of v is
# the number of bounds at or below it (nan: all ten); bands 0, 5 and 10 are
# the values `%` writes.  By band: 10^k, with the sign of v, and the text
# before D; the ASCII digits of 0000 to 9999 as one uint32 each
_G17_BOUNDS = np.array([*np.nextafter([-1.0, -0.1, -0.01, -0.001, -1e-4], 0.0),
                        1e-4, 1e-3, 1e-2, 0.1, 1.0])
_G17_SCALES = np.array([0.0, -1e17, -1e18, -1e19, -1e20, 0.0, 1e20, 1e19, 1e18, 1e17, 0.0])
_G17_PREFIXES = np.array([b"", b"-0.", b"-0.0", b"-0.00", b"-0.000", b"",
                          b"0.000", b"0.00", b"0.0", b"0.", b""])
# (in uint16: int64 temporaries raised the peak RSS of an import by 1 MB)
_DIGITS4 = ((np.arange(10_000, dtype=np.uint16)[:, None]
             // np.array([1000, 100, 10, 1], dtype=np.uint16)) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class _DateColumn:
    """Dates as one UTF-8 buffer, each date followed by LF, and the offset
    where each date starts, then the buffer's end: no str per date."""

    __slots__ = ("buffer", "offsets")

    def __init__(self, buffer: bytearray, offsets: np.ndarray):
        self.buffer = buffer
        self.offsets = offsets

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, rows: slice) -> List[bytes]:
        """The dates of rows `start:stop` (start <= stop), clipped to the
        column as a list clips them, as UTF-8 bytes, each quoted as csv's
        writer quotes: wrapped in `"`, its inner `"` doubled, when it holds
        `,`, `"`, CR or LF.  The rule reads UTF-8 bytes as it reads text,
        since no byte of a multi-byte character is ASCII."""
        rows = range(len(self))[rows]
        offsets = self.offsets[rows.start:rows.stop + 1].tolist()
        dates = bytes(memoryview(self.buffer)[offsets[0]:offsets[-1]])
        cells = dates.split(b"\n")
        cells.pop()  # after the last date's LF
        # one date per cell, and none to quote: an LF in a date, as only a
        # quoted one read by `_read_rows` can hold, adds a cell
        if len(cells) == len(offsets) - 1 and not any(char in dates for char in b',"\r'):
            return cells
        cells = [bytes(self.buffer[a:b - 1]) for a, b in zip(offsets, offsets[1:])]
        return [b'"' + cell.replace(b'"', b'""') + b'"'
                if any(char in cell for char in b',"\r\n') else cell for cell in cells]


_Series = Tuple[Optional[_DateColumn], np.ndarray]


def read_series(path: str) -> _Series:
    """Read a one-observation-per-line CSV: `value` or `date,value` rows.

    Both readers take the file a block at a time from `_blocks`.  Unquoted
    rows with one column count, all values finite, are parsed in bulk
    (`_read_blocks`); any other input goes through `_read_rows`, which gives
    the same result or names the first offending line.  Either returns the
    dates as a `_DateColumn`, or None for `value` rows.
    """
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    try:
        return _read_blocks(path) or _read_rows(path)
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"cannot read input file {path}: {exc.strerror or exc}") from exc


def _blocks(path: str) -> Iterator[bytes]:
    """The file in blocks of about `_READ_BLOCK_BYTES`, each ending at the
    end of a line and checked to be UTF-8; the only reader of the file.

    A block ends after its last LF, read on to the next LF if need be.  A
    block with no LF, as in a file with bare-CR line endings, ends after its
    last CR short of its last byte, and the bytes after that CR open the
    next block; with no such CR it is read on like the others.

    A byte-order mark, as spreadsheet exports write, is dropped from the
    first block, so it is not part of line 1; a decode error counts its
    offset from the start of the file, the mark included.
    """
    offset, rest = 0, b""  # rest: bytes read past the end of the last block
    with open(path, "rb") as fh:
        while block := rest + fh.read(_READ_BLOCK_BYTES):
            # a block with no LF ends after its last CR short of its last
            # byte, which may be half of a CRLF
            end = 0 if b"\n" in block else block.rfind(b"\r", 0, len(block) - 1) + 1
            block, rest = (block[:end], block[end:]) if end else (block, b"")
            if not (end or block.endswith(b"\n")):
                block += fh.readline()  # to the end of the line or the file
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not valid UTF-8 at byte offset "
                                f"{offset + exc.start}") from exc
            yield block.removeprefix(codecs.BOM_UTF8) if offset == 0 else block
            offset += len(block)


def _read_blocks(path: str) -> Optional[_Series]:
    """Bulk parse of plain `value` or `date,value` rows; None for anything else.

    Plain means: no quote; no blank or whitespace-only row;
    a header, if any, only on line 1; the same column count on every row;
    every value finite.  Each block of `_blocks` is checked and parsed on
    its own, as bytes: one split at its commas and line endings gives the
    cells of both columns, the values parsed by `float` as `_read_rows`
    parses them.  A block that is not plain ends the read.
    """
    # the columns grow in place, so no list of blocks is joined at the end
    values, buffer, offsets = array("d"), bytearray(), array("q", [0])
    n_commas = None
    with closing(_blocks(path)) as blocks:
        for index, block in enumerate(blocks):
            if b'"' in block:  # quotes are csv's to undo
                return None
            if b"\r" in block:  # CRLF, then a bare CR, ends a line, as for csv
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if not block.endswith(b"\n"):  # the file's last line
                block += b"\n"
            if index == 0:
                # a line 1 whose last cell is not a number (as str, which
                # `float` reads as `_read_rows` does) is a header
                line_1 = block[:block.index(b"\n")]
                try:
                    float(line_1.rpartition(b",")[2].decode("utf-8"))
                except ValueError:
                    block = block[len(line_1) + 1:]
            if not block:
                continue  # a first block of only a header
            if n_commas is None:
                n_commas = block[:block.index(b"\n")].count(b",")
                if n_commas > 1:
                    return None
            # each line has n_commas commas: the separators, in order, are
            # n_commas commas and an LF per line
            n_lines = block.count(b"\n")
            if block.translate(None, _NOT_SEPARATORS) != (b"," * n_commas + b"\n") * n_lines:
                return None
            cells = block.replace(b"\n", b",").split(b",")
            cells.pop()  # after the last line ending
            try:
                block_values = np.array(list(map(float, cells[n_commas::n_commas + 1])))
            except ValueError:
                return None
            if not np.isfinite(block_values).all():
                return None
            values.frombytes(block_values.view(np.uint8))
            if n_commas == 1:
                # each date with its line's LF
                dates = b"\n".join(cells[0::2]) + b"\n"
                ends = np.flatnonzero(np.frombuffer(dates, dtype=np.uint8) == ord("\n"))
                offsets.frombytes((ends + (len(buffer) + 1)).view(np.uint8))
                buffer += dates
    if not values:
        return None
    return _columns(buffer, offsets, values, n_commas == 1)


def _read_rows(path: str) -> _Series:
    """The reference parse, one CSV row at a time; the source of `path:line:` errors.

    csv reads the lines of `_blocks` in turn: no line spans two blocks.
    """
    values, buffer, offsets = array("d"), bytearray(), array("q", [0])
    n_cols = None
    next_row_line = 1  # the physical line where the row after this one starts
    try:
        with closing(_blocks(path)) as blocks:
            reader = csv.reader(line for block in blocks
                                for line in io.StringIO(block.decode("utf-8"), newline=""))
            for lineno, row in enumerate(reader, start=1):
                next_row_line = reader.line_num + 1
                if not row or all(not cell.strip() for cell in row):
                    continue
                if lineno == 1:
                    try:
                        float(row[-1])
                    except ValueError:
                        continue  # header row
                if n_cols is None:
                    n_cols = len(row)
                    if n_cols not in (1, 2):
                        raise DataError(f"{path}:{lineno}: expected 1 or 2 columns, got {n_cols}")
                if len(row) != n_cols:
                    raise DataError(f"{path}:{lineno}: inconsistent column count")
                try:
                    value = float(row[-1])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: not a number: {row[-1]!r}") from exc
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: not a finite number: {row[-1]!r}")
                values.append(value)
                if n_cols == 2:
                    buffer += row[0].encode("utf-8") + b"\n"
                    offsets.append(len(buffer))
    except csv.Error as exc:
        # a quote left open makes one field of the rest of the file, which
        # csv stops at its field size limit
        raise DataError(f"{path}:{next_row_line}: the row starting here cannot be read "
                        f"({exc}); is a quote left open?") from exc
    if not values:
        raise DataError(f"no observations found in {path}")
    return _columns(buffer, offsets, values, n_cols == 2)


def _columns(buffer: bytearray, offsets: array, values: array, dated: bool) -> _Series:
    """The series of both readers from the columns they grew: numpy views of
    the arrays, and the dates only for `date,value` rows."""
    dates = _DateColumn(buffer, np.frombuffer(offsets, dtype=np.int64)) if dated else None
    return dates, np.frombuffer(values, dtype=float)


def _model_from_args(args) -> Tuple[ParamVector, LevySpec]:
    """Parameters and the compound Poisson spec with their (mu, sigma2)."""
    beta = ParamVector(args.mu, args.sigma2, args.alpha_pi, args.B)
    return beta, LevySpec.from_moments(beta.mu, beta.sigma2, args.jump_shape)


def _conditions_from_args(args, kind: ModelKind) -> MomentConditionSet:
    if args.lags is None:
        return default_conditions(kind, delta=args.delta)
    return MomentConditionSet(kind=kind, lags=args.lags, delta=args.delta)


def _write_manifest(args, **extra) -> None:
    """`manifest.json`: the version, the parsed flags, the command, then `extra`."""
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    _write_json(os.path.join(args.out_dir, "manifest.json"),
                {"version": __version__, "config": config, "command": args.command, **extra})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    kind = ModelKind(args.model)
    beta, spec = _model_from_args(args)
    schedule = ObservationSchedule(args.delta, args.n_obs)
    pi = PiSpec.from_params(beta)

    paths = []
    for p in range(args.n_paths):
        sample = simulate_path(kind, spec, pi, schedule, SimulationConfig(seed=args.seed + p))
        os.makedirs(args.out_dir, exist_ok=True)
        filename = os.path.join(args.out_dir, f"path_{p:04d}.csv")
        _write_csv(filename, ["t", "value"], [schedule.times(), sample.values])
        paths.append(os.path.basename(filename))
        logger.info("wrote %s (%d observations)", filename, schedule.n_obs)

    _write_manifest(args, paths=paths)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _run_estimate(args, conditions: MomentConditionSet,
                  series: np.ndarray) -> Tuple[GmmResult, Dict]:
    """Cold-start two-step GMM of `conditions.kind` on a series.

    SV returns are demeaned in place: the series is the caller's own, the
    reader's or `np.diff`'s, so no second copy of it is made.  Returns the
    result and its JSON payload, which ends with the annualized step-2
    estimate when --annualize-factor is given.
    """
    if conditions.kind is ModelKind.SV:
        series -= series.mean()
    result = two_step_gmm(series, conditions.kind, conditions=conditions)
    payload = result.to_dict()
    if args.annualize_factor is not None:
        payload["annualize_factor"] = args.annualize_factor
        payload["step2_estimate_annualized"] = asdict(
            annualize(result.step2_estimate, args.annualize_factor))
    return result, payload


def _finish_estimate(args, n_observations: int, result: GmmResult, payload: Dict) -> int:
    """Write `<command>.json` and the manifest; exit 0, or 3 if step 2 did not converge."""
    _write_json(os.path.join(args.out_dir, f"{args.command}.json"), payload)
    _write_manifest(args, n_observations=n_observations)
    logger.info("%s complete: step-2 %s (converged: %s)", args.command,
                asdict(result.step2_estimate), result.converged_step2)
    return EXIT_OK if result.converged_step2 else EXIT_NONCONVERGED


def _read_input(args) -> Tuple[MomentConditionSet, _Series]:
    """The moment conditions of the flags and `read_series` of --input: the
    flags that need no data are checked before the file is read."""
    factor = args.annualize_factor
    if factor is not None and not (math.isfinite(factor) and factor > 0.0):
        raise DomainError(f"--annualize-factor must be finite and > 0, got {factor}")
    return _conditions_from_args(args, ModelKind(args.model)), read_series(args.input)


def cmd_estimate(args) -> int:
    conditions, (_, series) = _read_input(args)
    result, payload = _run_estimate(args, conditions, series)
    os.makedirs(args.out_dir, exist_ok=True)
    return _finish_estimate(args, series.size, result, payload)


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def _study_one_path(kind: ModelKind, beta_true: ParamVector, spec: LevySpec,
                    schedule: ObservationSchedule, conditions: MomentConditionSet,
                    seed: int) -> GmmResult:
    """One simulate-then-estimate replication: the `GmmResult` of the path
    drawn from `seed`.  An estimator error that exits 3 is raised again as
    its own class, its message ending with the seed.  Module-level for
    pickling."""
    sample = simulate_path(kind, spec, PiSpec.from_params(beta_true), schedule,
                           SimulationConfig(seed=seed))

    # start in a log-scale neighbourhood of the truth, as in a recovery study;
    # two_step_gmm uses only the start's shape, but the mu and sigma2 jitter
    # draws are kept, so each path's start shape is the one its seed drew
    theta0 = transform(beta_true) + _rng(seed, 2).uniform(-START_JITTER, START_JITTER, size=4)
    data = demean(sample.values) if kind is ModelKind.SV else sample.values
    try:
        return two_step_gmm(data, kind, conditions=conditions, start=untransform(theta0))
    except (InitializationError, SingularWeightingError) as exc:
        raise type(exc)(f"{exc} (study path with seed {seed})") from exc


def cmd_study(args) -> int:
    kind = ModelKind(args.model)
    beta, spec = _model_from_args(args)
    conditions = _conditions_from_args(args, kind)
    one_path = partial(_study_one_path, kind, beta, spec,
                       ObservationSchedule(args.delta, args.n_obs), conditions)
    paths = range(args.n_paths)
    seeds = range(args.seed, args.seed + args.n_paths)
    # both maps return the results in path order
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(one_path, seeds, chunksize=1))
    else:
        results = list(map(one_path, seeds))
    os.makedirs(args.out_dir, exist_ok=True)

    with open(os.path.join(args.out_dir, "results.jsonl"), "w", encoding="utf-8",
              newline="") as fh:
        fh.writelines(json.dumps({"path": path, "seed": seed, **result.to_dict()}) + "\n"
                      for path, seed, result in zip(paths, seeds, results))

    # the estimates of both steps as one (paths x 2 x 4) array, the last
    # axis in PARAM_NAMES order
    estimates = np.array([[r.step1_estimate.as_array(), r.step2_estimate.as_array()]
                          for r in results])
    converged_step1 = [r.converged_step1 for r in results]
    converged_step2 = np.array([r.converged_step2 for r in results])
    header = ["path", "seed", "converged_step1", "converged_step2",
              *(f"{step}_{name}" for step in ("step1", "step2") for name in PARAM_NAMES),
              "step1_objective", "step2_objective"]
    _write_csv(os.path.join(args.out_dir, "estimates.csv"), header,
               [paths, seeds, converged_step1, converged_step2,
                *estimates.reshape(len(results), 8).T,
                [r.step1_objective for r in results], [r.step2_objective for r in results]])

    final = estimates[converged_step2, 1]
    if len(final) >= 2:
        for name, values in zip(PARAM_NAMES, final.T):
            _write_csv(os.path.join(args.out_dir, f"hist_{name}.csv"),
                       ["left", "right", "count"], list(zip(*histogram(values, HIST_BINS))))
            _write_csv(os.path.join(args.out_dir, f"qq_{name}.csv"),
                       ["theoretical", "sample"], normal_qq_points(values).T)

    summary = {
        "command": "study",
        "model": kind.value,
        "n_paths": args.n_paths,
        "n_obs": args.n_obs,
        "true_params": asdict(beta),
        "converged_step1": sum(converged_step1),
        "converged_step2": len(final),
        "non_converged_paths": np.flatnonzero(~converged_step2).tolist(),
    }
    if len(final):
        medians = np.median(final, axis=0)
        errors = np.median(np.abs(final - beta.as_array()), axis=0)
        summary["medians_step2"] = dict(zip(PARAM_NAMES, medians.tolist()))
        summary["median_abs_error_step2"] = dict(zip(PARAM_NAMES, errors.tolist()))
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    _write_manifest(args)
    logger.info(
        "study complete: %d/%d paths converged in step 2",
        summary["converged_step2"], args.n_paths,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _model_curves(kind: ModelKind, beta: ParamVector, delta: float,
                  lags: Sequence[int]) -> Tuple[np.ndarray, float]:
    hs = np.asarray(lags, dtype=float)
    if kind is ModelKind.SUPOU:
        var = supou_var(beta)
        acov = supou_acov(beta, hs * delta)
    elif kind is ModelKind.INTEGRATED:
        var = intsupou_var(beta, delta)
        acov = intsupou_acov(beta, delta, hs)
    else:
        var = sv_sqret_var(beta, delta)
        acov = sv_sqret_acov(beta, delta, hs)
    return acov, var


def cmd_fit(args) -> int:
    conditions, (dates, series) = _read_input(args)
    kind = conditions.kind
    if args.prices:
        if np.any(series <= 0.0):
            raise DataError("price series must be strictly positive to take log returns")
        # the log in place and the prices released: no copy of them outlives this
        series = np.diff(np.log(series, out=series))
        if dates is not None:
            dates = _DateColumn(dates.buffer, dates.offsets[1:])
    if series.size < 3:
        raise DataError("need at least 3 observations after differencing")
    if args.acf_lags >= series.size:
        raise DataError(f"--acf-lags {args.acf_lags} needs more than {args.acf_lags} "
                        f"observations, got {series.size}")
    result, payload = _run_estimate(args, conditions, series)
    payload["acf_decay_exponent_step2"] = 1.0 - result.step2_estimate.alpha_pi

    # empirical curves are for the estimation series (squared returns for SV)
    target = series * series if kind is ModelKind.SV else series
    lags = list(range(1, args.acf_lags + 1))
    emp_var = sample_var(target)
    emp_acov = sample_acov(target, lags)
    acf_columns = {}
    for step, beta in (("step1", result.step1_estimate), ("step2", result.step2_estimate)):
        model_acov, model_var = _model_curves(kind, beta, args.delta, lags)
        acf_columns[step] = [lags, emp_acov, model_acov, emp_acov / emp_var, model_acov / model_var]
    os.makedirs(args.out_dir, exist_ok=True)

    _write_csv(os.path.join(args.out_dir, "series_used.csv"), ["date", "value"],
               [range(1, series.size + 1) if dates is None else dates, series])
    for step, columns in acf_columns.items():
        _write_csv(os.path.join(args.out_dir, f"acf_{step}.csv"),
                   ["lag", "empirical_acov", "model_acov", "empirical_acf", "model_acf"], columns)
    return _finish_estimate(args, series.size, result, payload)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=0.015)
    parser.add_argument("--sigma2", type=float, default=0.003)
    parser.add_argument("--alpha-pi", type=float, default=4.0, dest="alpha_pi")
    parser.add_argument("--B", type=float, default=-0.1)
    parser.add_argument("--jump-shape", type=float, default=3.0,
                        help="Gamma jump shape; the compound Poisson rate and the "
                             "jump rate follow from mu and sigma2")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--n-obs", type=_positive_int, default=10_000)


def _add_common_flags(parser: argparse.ArgumentParser, model_default: str) -> None:
    parser.add_argument("--model", choices=[k.value for k in ModelKind],
                        default=model_default)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--out-dir", default="out")


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lags", type=_lag_list, default=None,
                        help="comma-separated lag set, e.g. 1,2,4,5")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True)
    parser.add_argument("--annualize-factor", type=float, default=None)


@cache  # built once per process: building takes about 1 ms, parsing much less
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supou",
        description="Simulate and estimate supOU, integrated supOU and supOU SV models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write simulated path CSVs")
    _add_common_flags(sim, "supou")
    _add_param_flags(sim)
    _add_sim_flags(sim)
    sim.add_argument("--n-paths", type=_positive_int, default=1)
    sim.set_defaults(func=cmd_simulate)

    est = commands.add_parser("estimate", help="two-step GMM on one series")
    _add_common_flags(est, "supou")
    _add_estimation_flags(est)
    _add_input_flags(est)
    est.set_defaults(func=cmd_estimate)

    study = commands.add_parser("study", help="simulate-and-estimate recovery study")
    _add_common_flags(study, "supou")
    _add_param_flags(study)
    _add_sim_flags(study)
    _add_estimation_flags(study)
    study.add_argument("--n-paths", type=_positive_int, default=100)
    study.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel worker processes")
    study.set_defaults(func=cmd_study)

    fit = commands.add_parser("fit", help="fit empirical data and compare acfs")
    _add_common_flags(fit, "sv")
    _add_estimation_flags(fit)
    _add_input_flags(fit)
    mode = fit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--prices", action="store_true",
                      help="input holds prices; log returns are taken first")
    mode.add_argument("--returns", action="store_true",
                      help="input already holds log returns")
    fit.add_argument("--acf-lags", type=_positive_int, default=20,
                     help="compare empirical and model acf up to this lag")
    fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        # before any input is read: the nearest existing path at or above
        # --out-dir (a dangling link included) must be a directory
        existing = os.path.abspath(args.out_dir)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise DomainError(f"--out-dir {args.out_dir}: {existing} is not a directory")
        return args.func(args)
    except (DomainError, DataError, InitializationError, SingularWeightingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input is a ValueError; data the estimator cannot fit, a RuntimeError
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
